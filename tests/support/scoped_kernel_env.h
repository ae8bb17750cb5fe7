// Scoped FLAML_HISTOGRAM_KERNEL override for tests: sets (or, with nullptr,
// unsets) the variable and restores the prior value on scope exit, so a
// forced kernel cannot leak into later tests — even when the scope exits by
// a failed assertion or an exception.
#pragma once

#include <cstdlib>
#include <string>

namespace flaml::testing {

class ScopedKernelEnv {
 public:
  explicit ScopedKernelEnv(const char* value) {
    const char* old = std::getenv("FLAML_HISTOGRAM_KERNEL");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      ::unsetenv("FLAML_HISTOGRAM_KERNEL");
    } else {
      ::setenv("FLAML_HISTOGRAM_KERNEL", value, 1);
    }
  }
  ~ScopedKernelEnv() {
    if (had_old_) {
      ::setenv("FLAML_HISTOGRAM_KERNEL", old_.c_str(), 1);
    } else {
      ::unsetenv("FLAML_HISTOGRAM_KERNEL");
    }
  }
  ScopedKernelEnv(const ScopedKernelEnv&) = delete;
  ScopedKernelEnv& operator=(const ScopedKernelEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

}  // namespace flaml::testing
