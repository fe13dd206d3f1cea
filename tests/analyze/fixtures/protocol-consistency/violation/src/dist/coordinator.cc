#include "server/protocol.h"
namespace pcdb {
// Never answers SHARD_INFO.
void Coordinator::Answer() {}
}  // namespace pcdb
