/**
 * @file
 * A spawned `xtalkd` and native AF_UNIX clients for it, plus the
 * process probes (CPU time, peak RSS) the benchmark reads from outside.
 */
#ifndef PERFBENCH_DAEMON_H
#define PERFBENCH_DAEMON_H

#include <sys/types.h>

#include <string>

namespace perfbench {

/** One newline-delimited JSON connection to the daemon. */
class Connection {
  public:
    Connection() = default;
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /** Connect to @p socket_path; false when nobody listens there. */
    bool Open(const std::string& socket_path);
    /** Send @p line plus a newline, then block for one reply line. */
    bool RoundTrip(const std::string& line, std::string* reply);

  private:
    int fd_ = -1;
    std::string buffer_;
};

/**
 * An `xtalkd` child process. Start() spawns it and returns once a ping
 * is answered; Stop() asks it to shut down and reaps it. The destructor
 * kills and reaps a daemon that is still running, so no path leaves one
 * behind.
 */
class DaemonProcess {
  public:
    DaemonProcess() = default;
    ~DaemonProcess();
    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    /** Spawn @p binary on @p socket_path with @p max_concurrent run
     *  slots; false (with @p error) if it does not answer a ping within
     *  20 s. */
    bool Start(const std::string& binary, const std::string& socket_path,
               int max_concurrent, std::string* error);
    /** Send `shutdown` and reap; returns the exit status (-1 if killed). */
    int Stop();

    pid_t pid() const { return pid_; }
    const std::string& socket_path() const { return socket_path_; }

  private:
    void Kill();

    pid_t pid_ = -1;
    std::string socket_path_;
};

/** User+system CPU seconds consumed so far by process @p pid. */
double ProcessCpuSeconds(pid_t pid);
/** User+system CPU seconds of this process (all threads). */
double SelfCpuSeconds();
/** CPU seconds of the calling thread. */
double ThreadCpuSeconds();
/** High-water resident set of process @p pid, in MiB. */
double PeakRssMb(pid_t pid);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H
