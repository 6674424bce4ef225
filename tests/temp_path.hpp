// Per-process scratch paths for test fixture files. ctest runs every
// discovered test case as its own process, and parallel runs (ctest -j)
// execute them concurrently, so a fixture written to a fixed relative
// path would be overwritten and deleted by a sibling test. The pid makes
// each process's files its own.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace haccrg::testing_util {

/// `name` inside gtest's temp directory, prefixed with this process's pid.
inline std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(static_cast<long>(getpid())) + "_" + name;
}

}  // namespace haccrg::testing_util
