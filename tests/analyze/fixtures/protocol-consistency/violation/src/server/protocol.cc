#include "server/protocol.h"
namespace pcdb {
bool Known(FrameType t) { return t == FrameType::kPing; }
bool KnownShard(FrameType t) {
  return t == FrameType::kShardInfo || t == FrameType::kShardPing ||
         t == FrameType::kShardInfoResult;
}
void EncodeTraceBlock(const PingRequest& req, std::string* out) {
  if (req.trace_id == 0) return;
  out->push_back(static_cast<char>(req.parent_span_id & 0xFF));
  out->push_back(req.trace_sampled ? 1 : 0);
}
}  // namespace pcdb
