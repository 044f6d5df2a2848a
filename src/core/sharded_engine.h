// ShardedSodaEngine — the former in-process query router, now an alias.
//
// SodaEngine (core/engine.h) spreads its result cache over
// config.num_shards stripes and sizes one worker pool for all of them,
// which is everything the router's shards used to add over their one
// shared Soda core. The alias, SodaEngine::num_shards() and
// SodaEngine::shard() are kept for the end-to-end benchmark harness
// under perfbench/, which still names them; delete all three with their
// last use there.

#ifndef SODA_CORE_SHARDED_ENGINE_H_
#define SODA_CORE_SHARDED_ENGINE_H_

#include "core/engine.h"

namespace soda {

using ShardedSodaEngine = SodaEngine;

}  // namespace soda

#endif  // SODA_CORE_SHARDED_ENGINE_H_
