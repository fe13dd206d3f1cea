#include "server/protocol.h"
namespace pcdb {
bool Handle(FrameType t) {
  return t == FrameType::kPing || t == FrameType::kPong ||
         t == FrameType::kShardInfo || t == FrameType::kShardPing ||
         t == FrameType::kShardInfoResult;
}
}  // namespace pcdb
