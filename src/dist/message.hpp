// Wire messages of the master/worker protocol.
//
// The paper's platform exchanges serialised Java objects between the
// DataManager and its clients; here every protocol step is an explicit
// framed byte buffer so the encode → transfer → decode path is exercised
// even for the in-process loopback transport. Decoding is strict: a
// malformed frame from a worker must never take down the server, so every
// defect (unknown type, truncated header, length mismatch, trailing
// bytes) raises a typed exception at the frame boundary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace phodis::dist {

/// Protocol message kinds, in wire order. Values are the on-wire tag byte
/// and must never be renumbered.
enum class MessageType : std::uint8_t {
  kRequestWork = 0,      ///< worker -> server: idle, give me a task
  kAssignTask = 1,       ///< server -> worker: task_id + payload to execute
  kTaskResult = 2,       ///< worker -> server: task_id + result payload
  kNoWork = 3,           ///< server -> worker: pool empty but run not done
  kShutdown = 4,         ///< server -> worker: run complete, exit
  kMetricsSnapshot = 5,  ///< worker -> server: encoded obs::Snapshot payload
};

std::string to_string(MessageType type);

/// The server's well-known mailbox name: workers address every frame to
/// it, and the server signs its replies with it.
inline constexpr char kServerEndpoint[] = "server";

/// One framed protocol message.
struct Message {
  MessageType type = MessageType::kRequestWork;
  std::uint64_t task_id = 0;
  std::string sender;
  std::vector<std::uint8_t> payload;

  /// Serialise to a self-contained frame.
  std::vector<std::uint8_t> encode() const;

  /// Parse a frame. Throws std::invalid_argument on an unknown type tag,
  /// std::out_of_range on truncation, and std::length_error on trailing
  /// bytes after the payload.
  static Message decode(const std::vector<std::uint8_t>& frame);

  bool operator==(const Message&) const = default;
};

/// Fault-injection knobs for a transport.
struct FaultSpec {
  /// Probability that any sent frame is silently dropped, in [0, 1).
  double drop_probability = 0.0;
  /// Seed of the drop-decision stream (faults are reproducible).
  std::uint64_t seed = 2006;

  void validate() const;
};

}  // namespace phodis::dist
