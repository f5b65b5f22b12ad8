#include "rck/rckskel/job.hpp"

namespace rck::rckskel {

namespace {

std::uint32_t load_le32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Start a frame of `type` with its checksum slot reserved, so the frame is
/// written exactly once and seal() fills the slot in place.
bio::WireWriter frame(MsgType type) {
  bio::WireWriter w;
  w.u32(0);
  w.u8(static_cast<std::uint8_t>(type));
  return w;
}

/// Finish a frame: checksum everything after the slot and store it there
/// (little-endian, as WireWriter::u32 would).
bio::Bytes seal(bio::WireWriter& w) {
  bio::Bytes f = w.take();
  const std::uint32_t c = wire_checksum(std::span<const std::byte>(f).subspan(4));
  for (std::size_t k = 0; k < 4; ++k) f[k] = static_cast<std::byte>(c >> (8 * k));
  return f;
}

}  // namespace

std::uint32_t wire_checksum(std::span<const std::byte> data) noexcept {
  // FNV-style, a word at a time: eight lanes each absorb every eighth
  // little-endian 32-bit word, then the lanes, the tail and the length fold
  // into one state. Every step is h = (h ^ x) * odd, a bijection of h for a
  // fixed x, so changing any single byte always changes the result; the
  // lanes keep eight multiply chains in flight where byte-serial FNV-1a had
  // one dependent multiply per byte. This is an error-detection code for the
  // simulator's injected corruption, not a cryptographic one.
  constexpr std::uint32_t kPrime = 16777619u;  // the FNV-1a 32-bit prime
  constexpr std::uint32_t kBasis = 2166136261u;
  constexpr std::size_t kLanes = 8;
  std::uint32_t lane[kLanes];
  for (std::size_t k = 0; k < kLanes; ++k)
    lane[k] = kBasis + static_cast<std::uint32_t>(k);
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 4 * kLanes; p += 4 * kLanes, n -= 4 * kLanes)
    for (std::size_t k = 0; k < kLanes; ++k)
      lane[k] = (lane[k] ^ load_le32(p + 4 * k)) * kPrime;
  std::uint32_t h = kBasis;
  for (const std::uint32_t l : lane) h = (h ^ l) * kPrime;
  for (; n >= 4; p += 4, n -= 4) h = (h ^ load_le32(p)) * kPrime;
  for (; n > 0; ++p, --n) h = (h ^ static_cast<std::uint32_t>(*p)) * kPrime;
  const std::uint64_t len = data.size();
  h = (h ^ static_cast<std::uint32_t>(len)) * kPrime;
  h = (h ^ static_cast<std::uint32_t>(len >> 32)) * kPrime;
  // Avalanche so nearby inputs spread over all 32 bits (also bijective).
  h ^= h >> 16;
  h *= 0x85ebca6bu;
  h ^= h >> 13;
  h *= 0xc2b2ae35u;
  h ^= h >> 16;
  return h;
}

bio::Bytes encode_ready() {
  bio::WireWriter w = frame(MsgType::Ready);
  return seal(w);
}

bio::Bytes encode_job(const Job& job) {
  bio::WireWriter w = frame(MsgType::Job);
  w.u64(job.id);
  w.raw(job.payload);
  return seal(w);
}

bio::Bytes encode_result(std::uint64_t job_id, const bio::Bytes& payload) {
  bio::WireWriter w = frame(MsgType::Result);
  w.u64(job_id);
  w.raw(payload);
  return seal(w);
}

bio::Bytes encode_terminate() {
  bio::WireWriter w = frame(MsgType::Terminate);
  return seal(w);
}

bio::Bytes encode_checkpoint(const bio::Bytes& snapshot) {
  bio::WireWriter w = frame(MsgType::Checkpoint);
  w.raw(snapshot);
  return seal(w);
}

bio::Bytes encode_heartbeat(std::uint64_t seq) {
  bio::WireWriter w = frame(MsgType::Heartbeat);
  w.u64(seq);
  return seal(w);
}

Message decode_message(bio::Bytes raw) {
  if (raw.size() < 5)
    throw bio::WireError("decode_message: truncated frame");
  const std::span<const std::byte> body(raw.data() + 4, raw.size() - 4);
  bio::WireReader hdr(std::span<const std::byte>(raw.data(), 4));
  if (hdr.u32() != wire_checksum(body))
    throw bio::WireError("decode_message: checksum mismatch");
  bio::WireReader r(body);  // view into `raw`, which outlives the reads
  Message m;
  const std::uint8_t t = r.u8();
  if (t < 1 || t > 6) throw bio::WireError("decode_message: unknown type");
  m.type = static_cast<MsgType>(t);
  if (m.type == MsgType::Job || m.type == MsgType::Result) {
    m.job_id = r.u64();
    m.payload = r.rest();
  } else if (m.type == MsgType::Checkpoint) {
    m.payload = r.rest();
  } else if (m.type == MsgType::Heartbeat) {
    m.job_id = r.u64();
  }
  return m;
}

}  // namespace rck::rckskel
