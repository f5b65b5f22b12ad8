#include "rck/rckskel/job.hpp"

#include <gtest/gtest.h>

namespace rck::rckskel {
namespace {

bio::Bytes some_payload() {
  bio::WireWriter w;
  w.str("job payload");
  w.u32(99);
  return w.take();
}

TEST(JobCodec, ReadyRoundTrip) {
  const Message m = decode_message(encode_ready());
  EXPECT_EQ(m.type, MsgType::Ready);
  EXPECT_TRUE(m.payload.empty());
}

TEST(JobCodec, TerminateRoundTrip) {
  const Message m = decode_message(encode_terminate());
  EXPECT_EQ(m.type, MsgType::Terminate);
}

TEST(JobCodec, JobRoundTrip) {
  Job job;
  job.id = 1234567890123ull;
  job.payload = some_payload();
  const Message m = decode_message(encode_job(job));
  EXPECT_EQ(m.type, MsgType::Job);
  EXPECT_EQ(m.job_id, job.id);
  EXPECT_EQ(m.payload, job.payload);
}

TEST(JobCodec, ResultRoundTrip) {
  const bio::Bytes payload = some_payload();
  const Message m = decode_message(encode_result(77, payload));
  EXPECT_EQ(m.type, MsgType::Result);
  EXPECT_EQ(m.job_id, 77u);
  EXPECT_EQ(m.payload, payload);
}

TEST(JobCodec, EmptyPayloadJob) {
  Job job;
  job.id = 5;
  const Message m = decode_message(encode_job(job));
  EXPECT_EQ(m.job_id, 5u);
  EXPECT_TRUE(m.payload.empty());
}

// Hand-craft a frame with a *valid* checksum around the given body, so the
// tests below exercise the post-checksum validation too.
bio::Bytes sealed(const bio::Bytes& body) {
  bio::WireWriter w;
  w.u32(wire_checksum(body));
  w.raw(body);
  return w.take();
}

TEST(JobCodec, UnknownTypeThrows) {
  // 7 and 8 were the retired BATCH / BATCHRESULT frames.
  for (const std::uint8_t type : {7, 8, 9}) {
    bio::WireWriter w;
    w.u8(type);
    EXPECT_THROW(decode_message(sealed(w.take())), bio::WireError)
        << "type " << int{type};
  }
}

TEST(JobCodec, TruncatedJobThrows) {
  bio::WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::Job));
  w.u32(1);  // not a full u64 id
  EXPECT_THROW(decode_message(sealed(w.take())), bio::WireError);
}

TEST(JobCodec, EmptyBufferThrows) {
  EXPECT_THROW(decode_message(bio::Bytes{}), bio::WireError);
}

TEST(JobCodec, FrameShorterThanHeaderThrows) {
  // Fewer bytes than checksum + type can never be a frame.
  EXPECT_THROW(decode_message(bio::Bytes(3, std::byte{0})), bio::WireError);
}

TEST(JobCodec, SingleFlippedBitFailsChecksum) {
  Job job;
  job.id = 42;
  job.payload = some_payload();
  bio::Bytes frame = encode_job(job);
  for (std::size_t pos : {std::size_t{4}, frame.size() / 2, frame.size() - 1}) {
    bio::Bytes mangled = frame;
    mangled[pos] ^= std::byte{0x01};
    EXPECT_THROW(decode_message(std::move(mangled)), bio::WireError) << pos;
  }
}

TEST(JobCodec, CorruptedChecksumFieldItselfThrows) {
  bio::Bytes frame = encode_ready();
  frame[0] ^= std::byte{0xFF};
  EXPECT_THROW(decode_message(std::move(frame)), bio::WireError);
}

TEST(JobCodec, TruncatedTailFailsChecksum) {
  Job job;
  job.id = 42;
  job.payload = some_payload();
  bio::Bytes frame = encode_job(job);
  frame.pop_back();
  EXPECT_THROW(decode_message(std::move(frame)), bio::WireError);
}

TEST(JobCodec, ChecksumIsDeterministicAndPositionSensitive) {
  const bio::Bytes a = some_payload();
  EXPECT_EQ(wire_checksum(a), wire_checksum(a));
  const bio::Bytes b(a.rbegin(), a.rend());  // same bytes, reversed order
  EXPECT_NE(wire_checksum(a), wire_checksum(b));  // FNV-1a is order-sensitive
}

}  // namespace
}  // namespace rck::rckskel
