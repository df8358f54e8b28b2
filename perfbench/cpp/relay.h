// Recording TCP relay between fleet workers and their coordinator.
//
// The traced fleet run points its workers at this relay instead of the
// coordinator. Every byte is forwarded unchanged and also kept, with the
// time the relay received it, so the run can count frames and bytes per
// trial, measure request -> lease round trips, and replay the captured
// streams through FrameReader + dispatch_wire::parse. Loopback only;
// one poll() thread for all connections.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class RecordingRelay {
 public:
  struct Chunk {
    std::int64_t when_ns = 0;
    std::string bytes;
  };
  /// One relayed worker connection.
  struct Stream {
    std::vector<Chunk> to_coordinator;  ///< Worker -> coordinator.
    std::vector<Chunk> to_worker;       ///< Coordinator -> worker.
  };

  RecordingRelay() = default;
  ~RecordingRelay();
  RecordingRelay(const RecordingRelay&) = delete;
  RecordingRelay& operator=(const RecordingRelay&) = delete;

  /// Binds an ephemeral loopback port and starts forwarding each accepted
  /// connection to 127.0.0.1:`target_port`. Returns an error or "".
  std::string start(std::uint16_t target_port);
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Stops forwarding, closes every socket and joins the thread.
  void stop();

  /// Recorded streams, in accept order. Valid after stop().
  [[nodiscard]] const std::vector<Stream>& streams() const { return streams_; }

 private:
  void loop();

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t target_port_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<Stream> streams_;
  std::thread thread_;  // Last: it uses every member above.
};

}  // namespace perfbench
