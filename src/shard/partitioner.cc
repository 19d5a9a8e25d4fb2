#include "shard/partitioner.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace webmon {
namespace {

// Path-halving union-find over resource ids.
class UnionFind {
 public:
  explicit UnionFind(uint32_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  // Union by smaller root id so the representative is deterministic (the
  // component's minimum resource id once all unions are in).
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (a < b) {
      parent_[b] = a;
    } else {
      parent_[a] = b;
    }
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

uint32_t PartitionPlan::ShardsTouched(const ShardCeiSpec& cei) const {
  // CEIs have a handful of EIs: up to kInline of them, a linear dedup over
  // a stack array of shard ids (at most one per EI) beats any set
  // machinery. A wider CEI sorts its shard ids instead.
  constexpr size_t kInline = 64;
  auto shard_of = [&](const auto& ei) {
    const ResourceId resource = std::get<0>(ei);
    WEBMON_CHECK_LT(resource, num_resources);
    return shard_of_resource[resource];
  };
  if (cei.eis.size() > kInline) {
    std::vector<uint32_t> shards;
    shards.reserve(cei.eis.size());
    for (const auto& ei : cei.eis) shards.push_back(shard_of(ei));
    // total-order: plain shard ids; tying keys are equal values, and only
    // the distinct count is read.
    std::sort(shards.begin(), shards.end());
    return static_cast<uint32_t>(
        std::unique(shards.begin(), shards.end()) - shards.begin());
  }
  uint32_t seen[kInline];
  uint32_t count = 0;
  for (const auto& ei : cei.eis) {
    const uint32_t s = shard_of(ei);
    if (std::find(seen, seen + count, s) == seen + count) seen[count++] = s;
  }
  return count;
}

StatusOr<PartitionPlan> PartitionResources(
    uint32_t num_resources, uint32_t num_shards,
    const std::vector<ShardCeiSpec>& ceis) {
  if (num_resources == 0) {
    return Status::InvalidArgument("partition needs at least one resource");
  }
  if (num_shards < 1 || num_shards > num_resources) {
    return Status::InvalidArgument(
        "num_shards must lie in [1, num_resources]");
  }

  // Pass 1: per-resource EI load and the co-occurrence components.
  std::vector<int64_t> ei_load(num_resources, 0);
  UnionFind uf(num_resources);
  int64_t total_ei_load = 0;
  for (const ShardCeiSpec& cei : ceis) {
    ResourceId first = 0;
    bool have_first = false;
    for (const auto& [resource, start, finish] : cei.eis) {
      (void)start;
      (void)finish;
      if (resource >= num_resources) {
        return Status::OutOfRange("CEI references resource " +
                                  std::to_string(resource) +
                                  " beyond num_resources");
      }
      ++ei_load[resource];
      ++total_ei_load;
      if (!have_first) {
        first = resource;
        have_first = true;
      } else {
        uf.Union(first, resource);
      }
    }
  }

  // Pass 2: materialize the components of loaded resources (idle resources
  // are spread round-robin at the end). Components are discovered in
  // ascending root order via the ascending-r scan, members stay ascending —
  // both deterministic.
  std::vector<uint32_t> comp_of_root(num_resources, ~0u);
  std::vector<int64_t> comp_load;
  std::vector<std::vector<uint32_t>> comp_members;
  for (uint32_t r = 0; r < num_resources; ++r) {
    if (ei_load[r] == 0) continue;
    const uint32_t root = uf.Find(r);
    uint32_t c = comp_of_root[root];
    if (c == ~0u) {
      c = static_cast<uint32_t>(comp_load.size());
      comp_of_root[root] = c;
      comp_load.push_back(0);
      comp_members.emplace_back();
    }
    comp_load[c] += ei_load[r];
    comp_members[c].push_back(r);
  }

  PartitionPlan plan;
  plan.num_shards = num_shards;
  plan.num_resources = num_resources;
  plan.shard_of_resource.assign(num_resources, 0);
  plan.local_id.assign(num_resources, 0);
  plan.stats.total_ceis = static_cast<int64_t>(ceis.size());
  plan.stats.components = static_cast<int64_t>(comp_load.size());
  plan.stats.eis_per_shard.assign(num_shards, 0);
  plan.stats.resources_per_shard.assign(num_shards, 0);

  // Pass 3: place components, heaviest first (ties by smaller minimum
  // member id, i.e. first member), onto the least-loaded shard (ties by
  // lower shard id). A component heavier than the balanced per-shard load
  // cannot be co-located without starving other shards, so it is split:
  // members are placed one resource at a time by the same greedy rule —
  // the only source of cross-shard CEIs for clustered workloads.
  std::vector<uint32_t> order(comp_load.size());
  std::iota(order.begin(), order.end(), 0u);
  // total-order: ties on load fall through to the component's first member
  // id, unique per component (members are disjoint).
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (comp_load[a] != comp_load[b]) return comp_load[a] > comp_load[b];
    return comp_members[a].front() < comp_members[b].front();
  });

  std::vector<int64_t>& shard_load = plan.stats.eis_per_shard;
  auto least_loaded = [&]() {
    uint32_t best = 0;
    for (uint32_t s = 1; s < num_shards; ++s) {
      if (shard_load[s] < shard_load[best]) best = s;
    }
    return best;
  };
  // ceil(total / num_shards): the balanced load one shard may carry.
  const int64_t balanced =
      (total_ei_load + static_cast<int64_t>(num_shards) - 1) /
      static_cast<int64_t>(num_shards);

  std::vector<uint32_t> split_scratch;
  for (const uint32_t c : order) {
    if (num_shards == 1 || comp_load[c] <= balanced) {
      const uint32_t shard = least_loaded();
      shard_load[shard] += comp_load[c];
      for (const uint32_t r : comp_members[c]) {
        plan.shard_of_resource[r] = shard;
      }
      continue;
    }
    ++plan.stats.split_components;
    split_scratch = comp_members[c];
    // Heaviest member first (ties by id) so the greedy split balances.
    // total-order: load ties fall through to the unique resource id.
    std::sort(split_scratch.begin(), split_scratch.end(),
              [&](uint32_t a, uint32_t b) {
                if (ei_load[a] != ei_load[b]) return ei_load[a] > ei_load[b];
                return a < b;
              });
    for (const uint32_t r : split_scratch) {
      const uint32_t shard = least_loaded();
      shard_load[shard] += ei_load[r];
      plan.shard_of_resource[r] = shard;
    }
  }

  // Idle resources: round-robin by id for resource-count balance.
  uint32_t rr_next = 0;
  for (uint32_t r = 0; r < num_resources; ++r) {
    if (ei_load[r] != 0) continue;
    plan.shard_of_resource[r] = rr_next;
    rr_next = (rr_next + 1) % num_shards;
  }

  // Pass 4: dense local renumbering (ascending global id per shard) and the
  // remaining stats.
  plan.resources_of_shard.assign(num_shards, {});
  for (uint32_t r = 0; r < num_resources; ++r) {
    const uint32_t s = plan.shard_of_resource[r];
    plan.local_id[r] =
        static_cast<uint32_t>(plan.resources_of_shard[s].size());
    plan.resources_of_shard[s].push_back(r);
    ++plan.stats.resources_per_shard[s];
  }
  for (const ShardCeiSpec& cei : ceis) {
    if (plan.ShardsTouched(cei) > 1) ++plan.stats.cross_shard_ceis;
  }
  return plan;
}

}  // namespace webmon
