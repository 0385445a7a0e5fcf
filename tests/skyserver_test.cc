// SkyServer substitute: generator integrity and query smoke tests.

#include <gtest/gtest.h>

#include "core/monitor.h"
#include "skyserver/skyserver.h"
#include "stats/table_stats.h"

namespace qprog {
namespace skyserver {
namespace {

class SkyServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    SkyServerConfig config;
    config.num_photoobj = 8000;
    Status s = GenerateSkyServer(config, db_);
    QPROG_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* SkyServerTest::db_ = nullptr;

TEST_F(SkyServerTest, TablesPresent) {
  EXPECT_EQ(db_->GetTable("photoobj")->num_rows(), 8000u);
  EXPECT_EQ(db_->GetTable("photoz")->num_rows(), 8000u);
  uint64_t spec = db_->GetTable("specobj")->num_rows();
  EXPECT_GT(spec, 8000u / 20);  // ~10% of objects
  EXPECT_LT(spec, 8000u / 5);
  EXPECT_GT(db_->GetTable("neighbors")->num_rows(), 0u);
  EXPECT_NE(db_->GetStats("photoobj"), nullptr);
}

TEST_F(SkyServerTest, SpecObjForeignKeysValid) {
  const Table* spec = db_->GetTable("specobj");
  for (uint64_t i = 0; i < spec->num_rows(); ++i) {
    int64_t objid = spec->at(i, 1).int64_value();
    EXPECT_GE(objid, 1);
    EXPECT_LE(objid, 8000);
    const std::string cls(spec->at(i, 2).string_value());
    EXPECT_TRUE(cls == "GALAXY" || cls == "STAR" || cls == "QSO") << cls;
  }
}

TEST_F(SkyServerTest, TypesAreGalaxyOrStar) {
  const Table* photo = db_->GetTable("photoobj");
  uint64_t galaxies = 0;
  for (uint64_t i = 0; i < photo->num_rows(); ++i) {
    int64_t type = photo->at(i, 3).int64_value();
    EXPECT_TRUE(type == 3 || type == 6);
    galaxies += type == 3;
  }
  // ~60% galaxies by construction.
  EXPECT_NEAR(static_cast<double>(galaxies) / 8000.0, 0.6, 0.05);
}

TEST_F(SkyServerTest, RejectsBadConfig) {
  Database db;
  SkyServerConfig config;
  config.num_photoobj = 0;
  EXPECT_FALSE(GenerateSkyServer(config, &db).ok());
}

TEST_F(SkyServerTest, UnknownQueryRejected) {
  EXPECT_FALSE(BuildSkyQuery(1, *db_).ok());
  EXPECT_FALSE(BuildSkyQuery(99, *db_).ok());
  EXPECT_EQ(AvailableSkyQueries().size(), 7u);
}

class SkyQuerySmokeTest : public SkyServerTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(SkyQuerySmokeTest, ExecutesWithSaneMuAndSoundPmax) {
  auto plan = BuildSkyQuery(GetParam(), *db_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ProgressMonitor monitor =
      ProgressMonitor::WithEstimators(&plan.value(), {"pmax", "safe"});
  ProgressReport report = monitor.RunWithApproxCheckpoints(40);
  EXPECT_GT(report.total_work, 0u);
  EXPECT_GE(report.mu, 1.0);
  EXPECT_LT(report.mu, 3.0);
  int pmax = report.FindEstimator("pmax");
  for (const Checkpoint& c : report.checkpoints) {
    ASSERT_GE(c.estimates[pmax], c.true_progress - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSkyQueries, SkyQuerySmokeTest,
                         ::testing::ValuesIn(AvailableSkyQueries()));

TEST_F(SkyServerTest, Sq28GroupsByType) {
  auto plan = BuildSkyQuery(28, *db_);
  ASSERT_TRUE(plan.ok());
  auto rows = CollectRows(&plan.value());
  EXPECT_GE(rows.size(), 1u);
  EXPECT_LE(rows.size(), 2u);  // at most galaxy + star groups
}

TEST_F(SkyServerTest, Sq22JoinCountsMatchSpecObjCount) {
  // photoz |x| specobj on objid is a key join: one output per spectrum.
  auto plan = BuildSkyQuery(22, *db_);
  ASSERT_TRUE(plan.ok());
  auto rows = CollectRows(&plan.value());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].int64_value(),
            static_cast<int64_t>(db_->GetTable("specobj")->num_rows()));
}

}  // namespace
}  // namespace skyserver
}  // namespace qprog
