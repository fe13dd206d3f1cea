#include "server/protocol.h"
namespace pcdb {
FrameType Coordinator::ShardInfoAnswer() {
  return FrameType::kShardInfoResult;
}
}  // namespace pcdb
