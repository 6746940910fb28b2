// RunManifest serialization and file handling (src/obs/manifest.hpp):
// schema fields present and well-formed, $TCA_RESULTS_DIR routing, atomic
// writes, and try_write's no-throw contract.

#include "obs/manifest.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"
#include "runtime/error.hpp"
#include "temp_dir.hpp"

namespace tca::obs {
namespace {

namespace fs = std::filesystem;

RunManifest sample_manifest() {
  RunManifest m;
  m.tool = "unit_test_tool";
  m.status = "PASS";
  m.seed = 424242;
  m.argv = {"./unit_test_tool", "--flag"};
  m.stop_reason = "none";
  m.wall_ms = 12.5;
  m.budgets["watchdog_s"] = "30";
  m.checks.push_back({"check one", "PASS", ""});
  m.checks.push_back({"check two", "FAIL", "expected 3, got 4"});
  m.benchmarks.push_back({"BM_Something/64", 123.4, "ns", 5.5e8, 1000});
  m.extra["note"] = "free-form";
  return m;
}

TEST(Manifest, JsonContainsSchemaFields) {
  const std::string json = sample_manifest().to_json();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\":\"unit_test_tool\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"PASS\""), std::string::npos);
  EXPECT_NE(json.find("\"created_unix_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"build_type\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":424242"), std::string::npos);
  EXPECT_NE(json.find("\"stop_reason\":\"none\""), std::string::npos);
  EXPECT_NE(json.find("\"watchdog_s\":\"30\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"check one\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"expected 3, got 4\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"BM_Something/64\""), std::string::npos);
  EXPECT_NE(json.find("\"iterations\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"note\":\"free-form\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(json.back(), '}') << "document must close the top-level object";
}

TEST(Manifest, UnsetSeedSerializesAsNull) {
  RunManifest m = sample_manifest();
  m.seed.reset();
  EXPECT_NE(m.to_json().find("\"seed\":null"), std::string::npos);
}

TEST(Manifest, MetricsCanBeExcluded) {
  RunManifest m = sample_manifest();
  m.include_metrics = false;
  const std::string json = m.to_json();
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

TEST(Manifest, ResultsDirHonorsEnvOverride) {
  ASSERT_EQ(setenv("TCA_RESULTS_DIR", "/tmp/custom_results", 1), 0);
  EXPECT_EQ(results_dir(), "/tmp/custom_results");
  EXPECT_EQ(manifest_path("tool"),
            "/tmp/custom_results/tool.manifest.json");
  ASSERT_EQ(unsetenv("TCA_RESULTS_DIR"), 0);
  EXPECT_EQ(results_dir(), "results");
  EXPECT_EQ(manifest_path("tool"), "results/tool.manifest.json");
}

TEST(Manifest, WriteCreatesParentDirsAndIsParseableJson) {
  const tests::TempDir tmp("obs_manifest");
  const fs::path dir = tmp.path() / "nested";
  const std::string path = (dir / "m.manifest.json").string();
  Counter& writes = counter("manifest.writes");
  const std::uint64_t before = writes.value();
  sample_manifest().write(path);
  EXPECT_EQ(writes.value(), before + 1);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  ASSERT_FALSE(content.empty());
  EXPECT_EQ(content.back(), '\n');
  EXPECT_EQ(content[0], '{');
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp file must be renamed away";
}

TEST(Manifest, TryWriteReportsFailureWithoutThrowing) {
  // A path whose "parent directory" is a regular file cannot be created.
  const tests::TempDir tmp("obs_manifest");
  const fs::path block = tmp.path() / "block";
  { std::ofstream(block.string()) << "occupied"; }
  const std::string path = (block / "sub" / "m.manifest.json").string();
  EXPECT_FALSE(sample_manifest().try_write(path));
  EXPECT_THROW(sample_manifest().write(path), tca::RuntimeError);
}

}  // namespace
}  // namespace tca::obs
