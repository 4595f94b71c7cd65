#include "daemon.h"

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

extern char** environ;

namespace perfbench {

Connection::~Connection()
{
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

bool
Connection::Open(const std::string& socket_path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        return false;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    return true;
}

bool
Connection::RoundTrip(const std::string& line, std::string* reply)
{
    const std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
        const ssize_t n = ::send(fd_, framed.data() + sent,
                                 framed.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    char chunk[65536];
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return false;
        }
        buffer_.append(chunk, static_cast<size_t>(n));
    }
    reply->assign(buffer_, 0, newline);
    buffer_.erase(0, newline + 1);
    return true;
}

DaemonProcess::~DaemonProcess() { Kill(); }

bool
DaemonProcess::Start(const std::string& binary,
                     const std::string& socket_path, int max_concurrent,
                     std::string* error)
{
    socket_path_ = socket_path;
    ::unlink(socket_path.c_str());
    const std::string slots = std::to_string(max_concurrent);
    std::vector<std::string> args{binary,       "--socket",  socket_path,
                                  "--max-concurrent", slots,
                                  "--log-level", "quiet"};
    std::vector<char*> argv;
    for (std::string& arg : args) {
        argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    // The daemon's stdout goes to our stderr: our stdout carries results.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        pid_ = -1;
        *error = "cannot spawn " + binary + ": " + std::strerror(rc);
        return false;
    }
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < give_up) {
        Connection probe;
        std::string reply;
        if (probe.Open(socket_path) &&
            probe.RoundTrip(R"({"schema":"xtalk.request.v1","id":"ping",)"
                            R"("kind":"ping"})",
                            &reply) &&
            reply.find("\"status\":\"ok\"") != std::string::npos) {
            return true;
        }
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            *error = "xtalkd exited before answering a ping";
            return false;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    *error = "xtalkd did not answer a ping within 20 s";
    Kill();
    return false;
}

int
DaemonProcess::Stop()
{
    if (pid_ < 0) {
        return -1;
    }
    {
        Connection conn;
        std::string reply;
        if (conn.Open(socket_path_)) {
            conn.RoundTrip(R"({"schema":"xtalk.request.v1","id":"bye",)"
                           R"("kind":"shutdown"})",
                           &reply);
        }
    }
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < give_up) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            ::unlink(socket_path_.c_str());
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Kill();
    return -1;
}

void
DaemonProcess::Kill()
{
    if (pid_ < 0) {
        return;
    }
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    ::unlink(socket_path_.c_str());
}

double
ProcessCpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const size_t close = text.rfind(')');
    if (close == std::string::npos) {
        return 0.0;
    }
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i == 14) {
            utime = std::stod(field);
        } else if (i == 15) {
            stime = std::stod(field);
        }
    }
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
SelfCpuSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) *
               1e-6;
}

double
ThreadCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
PeakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    return 0.0;
}

}  // namespace perfbench
