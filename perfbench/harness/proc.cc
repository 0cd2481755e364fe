#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

extern char** environ;

namespace perfbench {

uctr::Result<Child> Child::Spawn(const std::vector<std::string>& argv,
                                 const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  Child child;
  child.log_path_ = log_path;
  int rc = posix_spawn(&child.pid_, args[0], &actions, nullptr, args.data(),
                       environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    child.pid_ = -1;
    return uctr::Status::Internal("cannot spawn " + argv[0]);
  }
  return child;
}

Child::Child(Child&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      log_path_(std::move(other.log_path_)) {}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    if (pid_ > 0) Stop();
    pid_ = std::exchange(other.pid_, -1);
    log_path_ = std::move(other.log_path_);
  }
  return *this;
}

Child::~Child() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
}

uctr::Result<uint16_t> Child::WaitListening(int timeout_ms) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  const std::string marker = "listening on ";
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream log(log_path_);
    std::stringstream text;
    text << log.rdbuf();
    std::string contents = text.str();
    size_t at = contents.find(marker);
    size_t eol = at == std::string::npos ? at : contents.find('\n', at);
    if (eol != std::string::npos) {
      std::string endpoint = contents.substr(at + marker.size(),
                                             eol - at - marker.size());
      size_t colon = endpoint.rfind(':');
      if (colon != std::string::npos) {
        return static_cast<uint16_t>(std::stoi(endpoint.substr(colon + 1)));
      }
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return uctr::Status::Unavailable("server exited before listening: " +
                                       contents);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return uctr::Status::DeadlineExceeded("server did not announce a port");
}

double Child::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double Child::Stop() {
  if (pid_ <= 0) return 0.0;
  double peak_mb = PeakRssMb();
  kill(pid_, SIGTERM);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  pid_t done = 0;
  while ((done = waitpid(pid_, nullptr, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (done == 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  pid_ = -1;
  return peak_mb;
}

}  // namespace perfbench
