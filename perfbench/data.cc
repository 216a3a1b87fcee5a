#include "data.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "src/stats/column_stats.h"

namespace perfbench {

using iceberg::DataType;
using iceberg::Schema;
using iceberg::Status;
using iceberg::Value;

iceberg::TablePtr MakeScoreTable(size_t rows, uint64_t seed,
                                 const std::string& name) {
  Schema schema({{"pid", DataType::kInt64},
                 {"year", DataType::kInt64},
                 {"round", DataType::kInt64},
                 {"teamid", DataType::kInt64},
                 {"hits", DataType::kInt64},
                 {"hruns", DataType::kInt64},
                 {"h2", DataType::kInt64},
                 {"sb", DataType::kInt64}});
  auto table = std::make_shared<iceberg::Table>(name, schema);

  const size_t players = std::max<size_t>(1, rows / 12);
  const int years = 30, rounds = 2, teams = 30, granularity = 4;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::normal_distribution<double> noise(0.0, 1.0);

  std::vector<double> skill(players), speed(players);
  std::vector<int> team(players);
  for (size_t p = 0; p < players; ++p) {
    skill[p] = uniform(rng);
    speed[p] = uniform(rng);
    team[p] = static_cast<int>(rng() % teams);
  }
  auto stat = [](double v, int hi) {
    const int x = static_cast<int>(std::lround(v));
    return std::max(0, std::min(hi, x)) / granularity;
  };

  size_t emitted = 0;
  for (int year = 0; emitted < rows; year = (year + 1) % years) {
    for (size_t p = 0; p < players && emitted < rows; ++p) {
      for (int round = 0; round < rounds && emitted < rows; ++round) {
        const double s = skill[p] + 0.05 * noise(rng);
        const double v = speed[p] + 0.05 * noise(rng);
        const int hits = stat(20.0 + 160.0 * s + 8.0 * noise(rng), 240);
        const int hruns = stat(50.0 * s * s + 3.0 * noise(rng), 70);
        const int h2 = stat(5.0 + 40.0 * s + 3.0 * noise(rng), 60);
        const int sb = stat(60.0 * v * (1.2 - 0.8 * s) + 3.0 * noise(rng), 110);
        table->AppendUnchecked(
            {Value::Int(static_cast<int64_t>(p)), Value::Int(1985 + year),
             Value::Int(round), Value::Int(team[p]), Value::Int(hits),
             Value::Int(hruns), Value::Int(h2), Value::Int(sb)});
        ++emitted;
      }
    }
  }
  return table;
}

namespace {

void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

std::unique_ptr<iceberg::Database> LoadScoreDb(
    const std::vector<iceberg::TablePtr>& tables) {
  auto db = std::make_unique<iceberg::Database>();
  for (const iceberg::TablePtr& table : tables) {
    const std::string name = table->name();
    CheckOk(db->RegisterTable(table), "register table");
    CheckOk(db->DeclareKey(name, {"pid", "year", "round"}), "declare key");
    CheckOk(db->CreateHashIndex(name, {"pid", "year", "round"}), "hash index");
    CheckOk(db->CreateOrderedIndex(name, {"hits", "hruns"}), "btree index");
    CheckOk(db->CreateOrderedIndex(name, {"h2", "sb"}), "btree index");
  }
  return db;
}

double WarmUp(iceberg::Database* db, const std::vector<std::string>& tables) {
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& name : tables) {
    iceberg::Result<iceberg::TablePtr> table = db->GetTable(name);
    CheckOk(table.status(), "warm-up lookup");
    (*table)->GetOrBuildChunks();
    iceberg::GetOrBuildTableStats(**table);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Statement Skyband(const std::string& name, const std::string& a1,
                  const std::string& a2, int k, const std::string& table) {
  return {name,
          "SELECT L.pid, L.year, L.round, COUNT(*) FROM " + table + " L, " +
              table + " R WHERE L." + a1 + " <= R." + a1 + " AND L." + a2 +
              " <= R." + a2 + " AND (L." + a1 + " < R." + a1 + " OR L." + a2 +
              " < R." + a2 +
              ") GROUP BY L.pid, L.year, L.round HAVING COUNT(*) <= " +
              std::to_string(k),
          ""};
}

Statement Pairs(const std::string& name, int c, int k, const std::string& agg) {
  const std::string body =
      "SELECT s1.pid AS pid1, s2.pid AS pid2, " + agg + "(s1.hits) AS hits1, " +
      agg + "(s1.hruns) AS hruns1, " + agg + "(s2.hits) AS hits2, " + agg +
      "(s2.hruns) AS hruns2 FROM score s1, score s2 "
      "WHERE s1.teamid = s2.teamid AND s1.year = s2.year "
      "AND s1.round = s2.round AND s1.pid < s2.pid "
      "GROUP BY s1.pid, s2.pid HAVING COUNT(*) >= " +
      std::to_string(c);
  return {name,
          "WITH pair AS (" + body +
              ") SELECT L.pid1, L.pid2, COUNT(*) FROM pair L, pair R "
              "WHERE R.hits1 >= L.hits1 AND R.hruns1 >= L.hruns1 "
              "AND R.hits2 >= L.hits2 AND R.hruns2 >= L.hruns2 "
              "AND (R.hits1 > L.hits1 OR R.hruns1 > L.hruns1 "
              "OR R.hits2 > L.hits2 OR R.hruns2 > L.hruns2) "
              "GROUP BY L.pid1, L.pid2 HAVING COUNT(*) <= " +
              std::to_string(k),
          body};
}

Statement PlayerAvgSkyband(const std::string& name, int k,
                           const std::string& table) {
  const std::string body =
      "SELECT pid, AVG(hits) AS h, AVG(hruns) AS hr FROM " + table +
      " s GROUP BY pid HAVING COUNT(*) >= 1";
  return {name,
          "WITH player AS (" + body +
              ") SELECT L.pid, COUNT(*) FROM player L, player R "
              "WHERE L.h < R.h AND L.hr < R.hr "
              "GROUP BY L.pid HAVING COUNT(*) <= " +
              std::to_string(k),
          body};
}

std::vector<Statement> Figure1() {
  return {Skyband("Q1", "hits", "hruns", 50), Skyband("Q2", "h2", "sb", 50),
          Skyband("Q3", "hits", "hruns", 200), Pairs("Q4", 6, 20, "AVG"),
          Pairs("Q5", 4, 50, "SUM"),           Pairs("Q6", 8, 10, "AVG"),
          Pairs("Q7", 4, 100, "SUM"),          PlayerAvgSkyband("Q8", 30)};
}

std::vector<std::vector<std::string>> RenderRows(const iceberg::Table& table) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(table.num_rows());
  for (const iceberg::Row& row : table.rows()) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const Value& v : row) cells.push_back(v.ToString());
    rows.push_back(std::move(cells));
  }
  return rows;
}

}  // namespace perfbench
