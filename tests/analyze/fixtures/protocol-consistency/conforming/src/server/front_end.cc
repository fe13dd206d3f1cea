#include "server/protocol.h"
namespace pcdb {
bool ToHandler(FrameType t) { return t == FrameType::kShardInfo; }
}  // namespace pcdb
