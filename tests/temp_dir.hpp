#pragma once
// Per-process, per-test scratch directories for the gtest suites.
//
// gtest_discover_tests runs every test case as its own process, so under
// `ctest -j` a fixed path under temp_directory_path() is shared by tests
// running at the same time, and one test's cleanup deletes another's
// files. TempDir names its directory after the tag, the pid and the
// running test, empties it on construction and removes it on destruction.
// scripts/tca_lint.py's `fixed-temp-path` rule rejects a string literal
// joined straight onto temp_directory_path() under tests/.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace tca::tests {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    std::string name = "tca_" + tag + "_" + std::to_string(::getpid());
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += std::string("_") + info->test_suite_name() + "_" + info->name();
    }
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    path_ = std::filesystem::temp_directory_path() / name;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace tca::tests
