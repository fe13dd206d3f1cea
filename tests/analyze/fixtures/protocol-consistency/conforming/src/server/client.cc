#include "server/protocol.h"
namespace pcdb {
bool Handle(FrameType t) {
  return t == FrameType::kPing || t == FrameType::kPong ||
         t == FrameType::kShardInfo || t == FrameType::kShardInfoResult;
}
PingRequest Inject(uint64_t trace_id, uint64_t parent_span_id) {
  PingRequest req;
  req.trace_id = trace_id;
  req.parent_span_id = parent_span_id;
  req.trace_sampled = trace_id != 0;
  return req;
}
}  // namespace pcdb
