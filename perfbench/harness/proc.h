// Child processes under test: the real uctr_serve and uctr_router binaries.
#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// A spawned program whose stdout and stderr go to a log file. The
/// destructor kills and reaps a child that was not stopped.
class Child {
 public:
  static uctr::Result<Child> Spawn(const std::vector<std::string>& argv,
                                   const std::string& log_path);

  Child() = default;
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  /// Waits for the "listening on HOST:PORT" announcement in the log.
  uctr::Result<uint16_t> WaitListening(int timeout_ms);

  /// The child's peak resident set so far, in MB (VmHWM; 0 if unknown).
  /// rusage cannot be used: a child spawned by vfork reports the parent's
  /// peak from before its exec.
  double PeakRssMb() const;

  /// SIGTERM, then reap (SIGKILL after a grace period). Returns the
  /// child's peak resident set in MB, read just before the signal.
  double Stop();

 private:
  pid_t pid_ = -1;
  std::string log_path_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
