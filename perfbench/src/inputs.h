// Seeded benchmark inputs. Each workload has a fixed data-generating
// concept (its own constant seed); the run seed only draws which rows
// of a pool generated from that concept form the run's tables. Every
// seed thus gives different rows of the same problem, so the spread
// between seeds measures the system, not how hard each random concept
// happens to be to learn.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>

#include "report.h"
#include "table/datasets.h"

namespace perfbench {

/// Generates `first_rows + second_rows` rows plus a tenth more from
/// `profile` with `concept_seed`, shuffles them with `sample_seed`, and
/// puts the first `first_rows` as dataset `first_name` and the next
/// `second_rows` as `second_name` into the LocalDfs at `dfs_root`.
void PutSample(treeserver::DatasetProfile profile, uint64_t concept_seed,
               uint64_t sample_seed, size_t first_rows, size_t second_rows,
               const std::string& first_name, const std::string& second_name,
               const std::string& dfs_root, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
