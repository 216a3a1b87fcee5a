#ifndef SMARTICEBERG_PERFBENCH_DATA_H_
#define SMARTICEBERG_PERFBENCH_DATA_H_

// The benchmark's inputs: the per-season `score` table of the paper's
// baseball workload, generated from the workload seed, and the Fig. 1
// queries over it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/database.h"

namespace perfbench {

/// Builds score(pid, year, round, teamid, hits, hruns, h2, sb) with `rows`
/// rows from `seed`: rows / 12 players with a latent skill and speed kept
/// across seasons, statistics divided by 4 for the paper's duplicate
/// density. (hits, hruns) are positively correlated; (h2, sb) trade off,
/// giving the denser skyband of Fig. 2. Same seed, same table.
iceberg::TablePtr MakeScoreTable(size_t rows, uint64_t seed,
                                 const std::string& name = "score");

/// Registers score tables with the paper's physical design: key (pid,
/// year, round) as a hash index plus B-tree indexes on the compared pairs.
/// Exits the process on failure (set-up is not expected to fail).
std::unique_ptr<iceberg::Database> LoadScoreDb(
    const std::vector<iceberg::TablePtr>& tables);

/// Builds the column-chunk and column-statistics caches of every table,
/// which queries otherwise build lazily on first use. Returns seconds.
double WarmUp(iceberg::Database* db, const std::vector<std::string>& tables);

/// One statement: its label (Fig. 1's "Q1" .. "Q8"; served statements add
/// k and table), its SQL, and for statements with a WITH block the block's
/// body alone.
struct Statement {
  std::string name;
  std::string sql;
  std::string cte_body;
};

/// Skyband over (a1, a2): records dominated by at most k others (Q1-Q3).
Statement Skyband(const std::string& name, const std::string& a1,
                  const std::string& a2, int k,
                  const std::string& table = "score");
/// Pairs of players with >= c seasons together whose aggregated
/// statistics are dominated by at most k other pairs (Q4-Q7).
Statement Pairs(const std::string& name, int c, int k, const std::string& agg);
/// Skyband over per-player averages (Q8).
Statement PlayerAvgSkyband(const std::string& name, int k,
                           const std::string& table = "score");

/// Q1 .. Q8 of Fig. 1, in order.
std::vector<Statement> Figure1();

/// Renders a result table as rows of cell strings (digest input).
std::vector<std::vector<std::string>> RenderRows(const iceberg::Table& table);

}  // namespace perfbench

#endif  // SMARTICEBERG_PERFBENCH_DATA_H_
