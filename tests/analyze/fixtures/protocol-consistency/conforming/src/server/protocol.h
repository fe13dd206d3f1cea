#include <cstdint>
#include <string>
namespace pcdb {
enum class FrameType : uint8_t {
  kPing = 0x01,
  kPong = 0x80,
  kShardInfo = 0x08,
  kShardInfoResult = 0x8A,
};
struct PingRequest {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool trace_sampled = false;
};
std::string EncodePingPayload();
bool DecodePingPayload(const std::string& payload);
}  // namespace pcdb
