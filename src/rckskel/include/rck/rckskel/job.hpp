// Job and message protocol of the rckskel skeleton library.
//
// Paper terminology (Section IV): a *job* is an application-specific unit of
// processing dispatched to one processing element (e.g. one pairwise PSC);
// a *task* is a collection of jobs or sub-tasks plus the computing resources
// allowed to process them. The wire protocol between master and slaves is
// four message types: READY (slave handshake, the check_ready mechanism),
// JOB, RESULT and TERMINATE.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rck/bio/serialize.hpp"

namespace rck::rckskel {

/// One unit of work: opaque application payload plus scheduling metadata.
struct Job {
  std::uint64_t id = 0;
  bio::Bytes payload;
  /// Optional cost estimate for LPT (longest-processing-time-first)
  /// ordering; 0 means unknown. The paper ran FIFO (no load balancing) and
  /// cites LPT-style balancing as possible future improvement.
  std::uint64_t cost_hint = 0;
};

/// A completed job as seen by the master.
struct JobResult {
  std::uint64_t id = 0;
  int worker = -1;  ///< UE that processed the job
  bio::Bytes payload;

  bool operator==(const JobResult&) const = default;
};

enum class MsgType : std::uint8_t {
  Ready = 1,
  Job = 2,
  Result = 3,
  Terminate = 4,
  /// Master-FT extensions (PR 6): a CHECKPOINT frame carries an encoded
  /// FarmCheckpoint snapshot to the standby; a HEARTBEAT frame proves master
  /// liveness between checkpoints. Both ride the same sealed-frame format.
  Checkpoint = 5,
  Heartbeat = 6,
};

/// 32-bit FNV-style checksum over `data` (word-at-a-time, eight lanes,
/// length mixed in), as carried in every protocol frame. Any single-byte
/// change alters it. Exposed so tests (and the fault injector) can craft or
/// verify frames.
std::uint32_t wire_checksum(std::span<const std::byte> data) noexcept;

/// Encode the skeleton-protocol messages. Every frame is
/// [u32 checksum][u8 type][type-specific body]; the checksum covers
/// everything after itself, so a corrupted or truncated frame is detected
/// at decode time instead of poisoning the farm.
bio::Bytes encode_ready();
bio::Bytes encode_job(const Job& job);
bio::Bytes encode_result(std::uint64_t job_id, const bio::Bytes& payload);
bio::Bytes encode_terminate();
bio::Bytes encode_checkpoint(const bio::Bytes& snapshot);
bio::Bytes encode_heartbeat(std::uint64_t seq);

/// A decoded protocol message.
struct Message {
  MsgType type = MsgType::Terminate;
  std::uint64_t job_id = 0;  ///< valid for Job / Result / Heartbeat (seq)
  bio::Bytes payload;        ///< valid for Job / Result / Checkpoint
};

/// Decode a protocol message; throws bio::WireError on malformed input.
Message decode_message(bio::Bytes raw);

}  // namespace rck::rckskel
