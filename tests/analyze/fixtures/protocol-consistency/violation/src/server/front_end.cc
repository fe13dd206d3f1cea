#include "server/protocol.h"
namespace pcdb {
// Routes SHARD_INFO to the handler but not SHARD_PING.
bool ToHandler(FrameType t) { return t == FrameType::kShardInfo; }
}  // namespace pcdb
