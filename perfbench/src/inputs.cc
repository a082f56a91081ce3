#include "inputs.h"

#include <numeric>
#include <vector>

#include "dfs/dfs.h"

namespace perfbench {

void PutSample(treeserver::DatasetProfile profile, uint64_t concept_seed,
               uint64_t sample_seed, size_t first_rows, size_t second_rows,
               const std::string& first_name, const std::string& second_name,
               const std::string& dfs_root, Report* report) {
  namespace ts = treeserver;
  const size_t wanted = first_rows + second_rows;
  profile.rows = wanted + wanted / 10;
  const ts::DataTable pool = ts::GenerateTable(profile, concept_seed);
  std::vector<uint32_t> order(pool.num_rows());
  std::iota(order.begin(), order.end(), 0u);
  ts::Rng rng(sample_seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  const std::vector<uint32_t> first(order.begin(), order.begin() + first_rows);
  const std::vector<uint32_t> second(order.begin() + first_rows,
                                     order.begin() + wanted);
  ts::LocalDfs dfs(dfs_root);
  report->Check(dfs.Put(pool.GatherRows(first), first_name, ts::DfsLayout{}).ok(),
                "Put " + first_name);
  report->Check(
      dfs.Put(pool.GatherRows(second), second_name, ts::DfsLayout{}).ok(),
      "Put " + second_name);
}

}  // namespace perfbench
