// Wire-protocol unit tests: encode/decode round trips for every message
// type, strict rejection of malformed frames, incremental FrameReader
// extraction from fragmented streams, and the endpoint-list parser every
// CLI and kJoin share.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/histogram.h"
#include "net/inflight.h"
#include "net/socket.h"

namespace scp::net {
namespace {

using namespace std::string_literals;

std::vector<Message> every_message_type() {
  std::vector<Message> messages;

  Message get;
  get.type = MsgType::kGet;
  get.id = 0xffffffffu;
  get.key = 0xdeadbeefcafe1234ULL;
  messages.push_back(get);

  Message value;
  value.type = MsgType::kValue;
  value.id = 0x01020304u;
  value.key = 7;
  value.payload = "the value bytes, including \0 inside"s;
  messages.push_back(value);

  Message miss;
  miss.type = MsgType::kMiss;
  miss.key = 42;
  messages.push_back(miss);

  Message redirect;
  redirect.type = MsgType::kRedirect;
  redirect.key = 99;
  redirect.node = 1234;
  messages.push_back(redirect);

  Message metrics_request;
  metrics_request.type = MsgType::kMetricsRequest;
  messages.push_back(metrics_request);

  Message metrics_reply;
  metrics_reply.type = MsgType::kMetricsReply;
  metrics_reply.metrics.counters["frontend.requests"] = 12345;
  metrics_reply.metrics.counters["frontend.hits"] = 0;
  metrics_reply.metrics.gauges["frontend.backends_up"] = -3;
  {
    LogHistogram rtt(5);
    rtt.record(1);
    rtt.record(120);
    rtt.record_n(70000, 40);
    metrics_reply.metrics.timers.emplace("frontend.forward_rtt_us",
                                         std::move(rtt));
    LogHistogram empty(7);
    metrics_reply.metrics.timers.emplace("loop.tick_us", std::move(empty));
  }
  messages.push_back(metrics_reply);

  Message ping;
  ping.type = MsgType::kPing;
  messages.push_back(ping);

  Message pong;
  pong.type = MsgType::kPong;
  messages.push_back(pong);

  Message error;
  error.type = MsgType::kError;
  error.key = 8;
  error.payload = "no live replica";
  messages.push_back(error);

  Message put;
  put.type = MsgType::kPut;
  put.key = 0x1122334455667788ULL;
  put.payload = "new value bytes\0with a null"s;
  messages.push_back(put);

  Message del;
  del.type = MsgType::kDelete;
  del.key = 314159;
  messages.push_back(del);

  Message write_reply;
  write_reply.type = MsgType::kWriteReply;
  write_reply.id = 12;
  write_reply.key = 271828;
  write_reply.version = (42ULL << 10) | 7;  // counter 42 minted by node 7
  messages.push_back(write_reply);

  Message quorum_get;
  quorum_get.type = MsgType::kQuorumGet;
  quorum_get.key = 0xfeedfacefeedfaceULL;
  messages.push_back(quorum_get);

  Message ver_read;
  ver_read.type = MsgType::kVerRead;
  ver_read.key = 161803;
  messages.push_back(ver_read);

  Message ver_value_found;
  ver_value_found.type = MsgType::kVerValue;
  ver_value_found.key = 161803;
  ver_value_found.version = (9ULL << 10) | 3;
  ver_value_found.flags = kFlagFound;
  ver_value_found.payload = "versioned bytes";
  messages.push_back(ver_value_found);

  Message ver_value_tombstone;
  ver_value_tombstone.type = MsgType::kVerValue;
  ver_value_tombstone.key = 161803;
  ver_value_tombstone.version = (10ULL << 10) | 3;
  ver_value_tombstone.flags = kFlagFound | kFlagTombstone;
  messages.push_back(ver_value_tombstone);

  Message ver_value_miss;
  ver_value_miss.type = MsgType::kVerValue;
  ver_value_miss.key = 161803;
  messages.push_back(ver_value_miss);  // flags=0: not found, version 0

  Message replicate;
  replicate.type = MsgType::kReplicate;
  replicate.key = 577215;
  replicate.version = (100ULL << 10) | 1;
  replicate.payload = "replicated value";
  messages.push_back(replicate);

  Message replicate_tombstone;
  replicate_tombstone.type = MsgType::kReplicate;
  replicate_tombstone.key = 577215;
  replicate_tombstone.version = (101ULL << 10) | 2;
  replicate_tombstone.flags = kFlagTombstone;
  messages.push_back(replicate_tombstone);

  Message rep_ack;
  rep_ack.type = MsgType::kRepAck;
  rep_ack.key = 577215;
  rep_ack.version = (100ULL << 10) | 1;
  rep_ack.flags = kFlagApplied;
  messages.push_back(rep_ack);

  Message join;
  join.type = MsgType::kJoin;
  join.node = 5;
  join.payload = "127.0.0.1:43121";
  messages.push_back(join);

  Message leave;
  leave.type = MsgType::kLeave;
  leave.node = 5;
  messages.push_back(leave);

  Message hot_report;
  hot_report.type = MsgType::kHotKeyReport;
  hot_report.hot.node = 3;
  hot_report.hot.seq = 41;
  hot_report.hot.total = 100000;
  hot_report.hot.entries = {{0xdeadbeefULL, 5000}, {7, 4999}, {~0ULL, 1}};
  messages.push_back(hot_report);

  Message hot_report_empty;
  hot_report_empty.type = MsgType::kHotKeyReport;
  hot_report_empty.hot.node = 0;
  hot_report_empty.hot.seq = 1;
  messages.push_back(hot_report_empty);  // cold sketch: no entries yet

  Message hot_subscribe;
  hot_subscribe.type = MsgType::kHotKeySubscribe;
  messages.push_back(hot_subscribe);

  Message batch_get;
  batch_get.type = MsgType::kBatchGet;
  batch_get.id = 0xfffffffeu;  // its keys own ids ...fe, ...ff, 0, 1, 2
  batch_get.batch_keys = {0xdeadbeefcafe1234ULL, 7, 7, 0, ~0ULL};
  messages.push_back(batch_get);

  Message batch_get_empty;
  batch_get_empty.type = MsgType::kBatchGet;
  messages.push_back(batch_get_empty);  // count 0: legal, answers nothing

  Message batch_reply;
  batch_reply.type = MsgType::kBatchReply;
  batch_reply.id = 0xfffffffeu;
  batch_reply.batch.push_back(
      {MsgType::kValue, 7, 0, "batched value bytes\0with a null"s});
  batch_reply.batch.push_back({MsgType::kMiss, 42, 0, ""});
  batch_reply.batch.push_back({MsgType::kRedirect, 99, 1234, ""});
  batch_reply.batch.push_back({MsgType::kError, 8, 0, "no live replica"});
  messages.push_back(batch_reply);

  Message batch_reply_empty;
  batch_reply_empty.type = MsgType::kBatchReply;
  messages.push_back(batch_reply_empty);

  return messages;
}

TEST(Wire, RoundTripEveryMessageType) {
  for (const Message& message : every_message_type()) {
    const std::vector<std::uint8_t> frame = encode(message);
    ASSERT_GE(frame.size(), kLengthPrefixBytes);
    const std::span<const std::uint8_t> payload{
        frame.data() + kLengthPrefixBytes, frame.size() - kLengthPrefixBytes};
    const auto decoded = decode_payload(payload);
    ASSERT_TRUE(decoded.has_value())
        << "type=" << static_cast<int>(message.type);
    EXPECT_EQ(*decoded, message) << "type=" << static_cast<int>(message.type);
  }
}

TEST(Wire, EncodeIntoIsByteIdenticalToEncode) {
  // The reactors' zero-allocation hot path must never diverge from encode():
  // the --shards 1 equivalence guard depends on identical bytes on the wire.
  std::vector<std::uint8_t> scratch;
  for (const Message& message : every_message_type()) {
    const std::vector<std::uint8_t> fresh = encode(message);
    encode_into(message, scratch);
    EXPECT_EQ(scratch, fresh) << "type=" << static_cast<int>(message.type);
  }
}

TEST(Wire, EncodeIntoReusesCapacityAcrossFrames) {
  Message big;
  big.type = MsgType::kValue;
  big.key = 1;
  big.payload.assign(4096, 'x');
  std::vector<std::uint8_t> scratch;
  encode_into(big, scratch);
  const std::size_t grown = scratch.capacity();
  const std::uint8_t* data = scratch.data();

  // A smaller frame re-encoded into the same scratch must not shrink or
  // reallocate it — that stability is what makes the per-frame cost zero.
  Message small;
  small.type = MsgType::kGet;
  small.key = 2;
  encode_into(small, scratch);
  EXPECT_EQ(scratch.capacity(), grown);
  EXPECT_EQ(scratch.data(), data);
  EXPECT_EQ(scratch, encode(small));
}

TEST(Wire, LengthPrefixMatchesPayload) {
  Message message;
  message.type = MsgType::kValue;
  message.key = 1;
  message.payload = "abc";
  const std::vector<std::uint8_t> frame = encode(message);
  const std::uint32_t declared = (static_cast<std::uint32_t>(frame[0]) << 24) |
                                 (static_cast<std::uint32_t>(frame[1]) << 16) |
                                 (static_cast<std::uint32_t>(frame[2]) << 8) |
                                 static_cast<std::uint32_t>(frame[3]);
  EXPECT_EQ(declared, frame.size() - kLengthPrefixBytes);
}

TEST(Wire, RejectsEmptyPayload) {
  EXPECT_FALSE(decode_payload({}).has_value());
}

TEST(Wire, RejectsUnknownType) {
  const std::uint8_t payload[] = {0x7f, 0, 0, 0, 0};
  EXPECT_FALSE(decode_payload(payload).has_value());
  const std::uint8_t zero[] = {0x00, 0, 0, 0, 0};
  EXPECT_FALSE(decode_payload(zero).has_value());
  // 5 and 6 are unassigned.
  const std::uint8_t five[] = {0x05, 0, 0, 0, 0};
  EXPECT_FALSE(decode_payload(five).has_value());
  const std::uint8_t six[] = {0x06, 0, 0, 0, 0};
  EXPECT_FALSE(decode_payload(six).has_value());
}

TEST(Wire, RequestIdFollowsTheTypeByte) {
  Message message;
  message.type = MsgType::kPing;
  message.id = 0xa1b2c3d4u;
  const std::vector<std::uint8_t> frame = encode(message);
  const std::vector<std::uint8_t> expected = {
      0, 0, 0, 5, static_cast<std::uint8_t>(MsgType::kPing),
      0xa1, 0xb2, 0xc3, 0xd4};
  EXPECT_EQ(frame, expected);
}

TEST(Wire, RejectsTruncatedFields) {
  // Every prefix of a valid payload except the full length must fail.
  for (const Message& message : every_message_type()) {
    const std::vector<std::uint8_t> frame = encode(message);
    const std::span<const std::uint8_t> payload{
        frame.data() + kLengthPrefixBytes, frame.size() - kLengthPrefixBytes};
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_FALSE(decode_payload(payload.subspan(0, cut)).has_value())
          << "type=" << static_cast<int>(message.type) << " cut=" << cut;
    }
  }
}

TEST(Wire, RejectsTrailingGarbage) {
  for (const Message& message : every_message_type()) {
    std::vector<std::uint8_t> frame = encode(message);
    frame.push_back(0xee);
    const std::span<const std::uint8_t> payload{
        frame.data() + kLengthPrefixBytes, frame.size() - kLengthPrefixBytes};
    EXPECT_FALSE(decode_payload(payload).has_value())
        << "type=" << static_cast<int>(message.type);
  }
}

TEST(Wire, RejectsEmbeddedLengthOverrun) {
  // kValue whose inner byte-length claims more than the payload holds.
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(MsgType::kValue));
  payload.insert(payload.end(), 4, 0);  // request id
  for (int i = 0; i < 8; ++i) payload.push_back(0);  // key
  payload.insert(payload.end(), {0x00, 0x00, 0x00, 0x10});  // len 16...
  payload.push_back('a');                                   // ...1 byte
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(FrameReaderTest, ExtractsFramesAcrossArbitraryChunks) {
  const std::vector<Message> messages = every_message_type();
  std::vector<std::uint8_t> stream;
  for (const Message& message : messages) {
    const std::vector<std::uint8_t> frame = encode(message);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  for (std::size_t chunk = 1; chunk <= 7; ++chunk) {
    FrameReader reader;
    std::vector<Message> decoded;
    for (std::size_t offset = 0; offset < stream.size(); offset += chunk) {
      const std::size_t len = std::min(chunk, stream.size() - offset);
      reader.append({stream.data() + offset, len});
      while (auto payload = reader.next_payload()) {
        auto message = decode_payload(*payload);
        ASSERT_TRUE(message.has_value());
        decoded.push_back(*message);
      }
    }
    ASSERT_FALSE(reader.corrupted());
    EXPECT_EQ(reader.buffered_bytes(), 0u);
    ASSERT_EQ(decoded.size(), messages.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(decoded[i], messages[i]) << "chunk=" << chunk << " i=" << i;
    }
  }
}

TEST(FrameReaderTest, OversizedDeclaredLengthPoisonsTheStream) {
  FrameReader reader;
  const std::uint32_t huge = kMaxFrameBytes + 1;
  const std::uint8_t prefix[] = {
      static_cast<std::uint8_t>(huge >> 24), static_cast<std::uint8_t>(huge >> 16),
      static_cast<std::uint8_t>(huge >> 8), static_cast<std::uint8_t>(huge)};
  reader.append(prefix);
  EXPECT_FALSE(reader.next_payload().has_value());
  EXPECT_TRUE(reader.corrupted());
  // A poisoned reader never yields frames again, even valid ones.
  const std::vector<std::uint8_t> valid = encode(Message{});
  reader.append(valid);
  EXPECT_FALSE(reader.next_payload().has_value());
  EXPECT_TRUE(reader.corrupted());
}

TEST(FrameReaderTest, MaxSizedFrameIsAccepted) {
  Message message;
  message.type = MsgType::kValue;
  message.key = 1;
  // Inner layout: type(1) + id(4) + key(8) + len(4) + bytes — fill to the
  // cap.
  message.payload.assign(kMaxFrameBytes - 17, 'x');
  const std::vector<std::uint8_t> frame = encode(message);
  FrameReader reader;
  reader.append(frame);
  auto payload = reader.next_payload();
  ASSERT_TRUE(payload.has_value());
  EXPECT_FALSE(reader.corrupted());
  auto decoded = decode_payload(*payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload.size(), message.payload.size());
}

TEST(FrameReaderTest, NextFrameYieldsSameBytesAsNextPayload) {
  const std::vector<Message> messages = every_message_type();
  std::vector<std::uint8_t> stream;
  for (const Message& message : messages) {
    const std::vector<std::uint8_t> frame = encode(message);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  for (std::size_t chunk = 1; chunk <= 7; ++chunk) {
    FrameReader reader;
    std::vector<Message> decoded;
    for (std::size_t offset = 0; offset < stream.size(); offset += chunk) {
      const std::size_t len = std::min(chunk, stream.size() - offset);
      reader.append({stream.data() + offset, len});
      // The zero-copy view is valid until the next reader call; decode
      // immediately, exactly as the reactor's read path does.
      while (auto view = reader.next_frame()) {
        auto message = decode_payload(*view);
        ASSERT_TRUE(message.has_value()) << "chunk=" << chunk;
        decoded.push_back(std::move(*message));
      }
    }
    ASSERT_FALSE(reader.corrupted());
    EXPECT_EQ(reader.buffered_bytes(), 0u);
    ASSERT_EQ(decoded.size(), messages.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(decoded[i], messages[i]) << "chunk=" << chunk << " i=" << i;
    }
  }
}

TEST(FrameReaderTest, NextFrameRespectsCorruption) {
  FrameReader reader;
  const std::uint32_t huge = kMaxFrameBytes + 1;
  const std::uint8_t prefix[] = {
      static_cast<std::uint8_t>(huge >> 24), static_cast<std::uint8_t>(huge >> 16),
      static_cast<std::uint8_t>(huge >> 8), static_cast<std::uint8_t>(huge)};
  reader.append(prefix);
  EXPECT_FALSE(reader.next_frame().has_value());
  EXPECT_TRUE(reader.corrupted());
}

TEST(FrameReaderTest, StorageRecyclingKeepsCapacityAndDropsContents) {
  Message message;
  message.type = MsgType::kValue;
  message.key = 9;
  message.payload.assign(2048, 'y');
  const std::vector<std::uint8_t> frame = encode(message);

  FrameReader first;
  first.append(frame);
  ASSERT_TRUE(first.next_frame().has_value());

  // Retire the first reader and hand its storage to a new connection's
  // reader, as FrameLoop does through the per-loop buffer pool.
  std::vector<std::uint8_t> storage = first.release_storage();
  const std::size_t recycled_capacity = storage.capacity();
  EXPECT_GE(recycled_capacity, frame.size());

  FrameReader second;
  second.adopt_storage(std::move(storage));
  EXPECT_EQ(second.buffered_bytes(), 0u);  // capacity only, no stale bytes
  second.append(frame);
  auto view = second.next_frame();
  ASSERT_TRUE(view.has_value());
  const auto decoded = decode_payload(*view);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, message);
}

TEST(FrameReaderTest, PartialFrameStaysBuffered) {
  Message message;
  message.type = MsgType::kGet;
  message.key = 5;
  const std::vector<std::uint8_t> frame = encode(message);
  FrameReader reader;
  reader.append({frame.data(), frame.size() - 1});
  EXPECT_FALSE(reader.next_payload().has_value());
  EXPECT_FALSE(reader.corrupted());
  EXPECT_EQ(reader.buffered_bytes(), frame.size() - 1);
  reader.append({frame.data() + frame.size() - 1, 1});
  EXPECT_TRUE(reader.next_payload().has_value());
}

TEST(Wire, MetricsReplyPreservesHistogramQuantiles) {
  Message message;
  message.type = MsgType::kMetricsReply;
  LogHistogram h(5);
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  message.metrics.timers.emplace("backend.service_us", h);

  const std::vector<std::uint8_t> frame = encode(message);
  const std::span<const std::uint8_t> payload{
      frame.data() + kLengthPrefixBytes, frame.size() - kLengthPrefixBytes};
  const auto decoded = decode_payload(payload);
  ASSERT_TRUE(decoded.has_value());
  const auto it = decoded->metrics.timers.find("backend.service_us");
  ASSERT_NE(it, decoded->metrics.timers.end());
  EXPECT_EQ(it->second, h);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(it->second.value_at_quantile(q), h.value_at_quantile(q))
        << "q=" << q;
  }
}

namespace {

/// Hand-built kMetricsReply payload with zero counters/gauges and one timer
/// whose header fields are caller-controlled.
std::vector<std::uint8_t> metrics_payload_with_timer(
    std::uint8_t precision,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& buckets) {
  std::vector<std::uint8_t> payload;
  const auto u32 = [&payload](std::uint32_t v) {
    payload.push_back(static_cast<std::uint8_t>(v >> 24));
    payload.push_back(static_cast<std::uint8_t>(v >> 16));
    payload.push_back(static_cast<std::uint8_t>(v >> 8));
    payload.push_back(static_cast<std::uint8_t>(v));
  };
  const auto u64 = [&u32](std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  };
  payload.push_back(static_cast<std::uint8_t>(MsgType::kMetricsReply));
  u32(0);  // request id
  u32(0);  // counters
  u32(0);  // gauges
  u32(1);  // timers
  u32(1);  // name length
  payload.push_back('t');
  payload.push_back(precision);
  std::uint64_t total = 0;
  for (const auto& [index, count] : buckets) total += count;
  u64(total > 0 ? 1 : 0);                     // min
  u64(total > 0 ? 2 : 0);                     // max
  u64(std::bit_cast<std::uint64_t>(0.0));     // sum
  u32(static_cast<std::uint32_t>(buckets.size()));
  for (const auto& [index, count] : buckets) {
    u32(index);
    u64(count);
  }
  return payload;
}

}  // namespace

TEST(Wire, RejectsMetricsTimerWithBadPrecision) {
  EXPECT_FALSE(
      decode_payload(metrics_payload_with_timer(0, {{0, 1}})).has_value());
  EXPECT_FALSE(
      decode_payload(metrics_payload_with_timer(11, {{0, 1}})).has_value());
  EXPECT_TRUE(
      decode_payload(metrics_payload_with_timer(5, {{1, 1}})).has_value());
}

TEST(Wire, RejectsMetricsTimerWithMalformedBuckets) {
  // Non-ascending bucket indices.
  EXPECT_FALSE(
      decode_payload(metrics_payload_with_timer(5, {{7, 1}, {3, 1}}))
          .has_value());
  // Zero-count buckets.
  EXPECT_FALSE(
      decode_payload(metrics_payload_with_timer(5, {{3, 0}})).has_value());
  // Bucket index beyond the precision's bucket range.
  EXPECT_FALSE(
      decode_payload(metrics_payload_with_timer(1, {{0xffffff, 1}}))
          .has_value());
}

TEST(Wire, WriteFramesPreserveVersionAndFlagsExtremes) {
  // The LWW tie-break depends on every version bit surviving the wire.
  Message message;
  message.type = MsgType::kReplicate;
  message.key = ~0ULL;
  message.version = ~0ULL;
  message.flags = 0xff;
  message.payload = "x";
  const std::vector<std::uint8_t> frame = encode(message);
  const auto decoded = decode_payload(
      {frame.data() + kLengthPrefixBytes, frame.size() - kLengthPrefixBytes});
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->version, ~0ULL);
  EXPECT_EQ(decoded->flags, 0xff);
  EXPECT_EQ(*decoded, message);
}

TEST(Wire, RejectsPutWithEmbeddedLengthOverrun) {
  // kPut whose inner byte-length claims more than the payload holds.
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(MsgType::kPut));
  payload.insert(payload.end(), 4, 0);  // request id
  for (int i = 0; i < 8; ++i) payload.push_back(0);         // key
  payload.insert(payload.end(), {0x00, 0x00, 0x00, 0x20});  // len 32...
  payload.push_back('a');                                   // ...1 byte
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(Wire, RejectsJoinWithEmbeddedLengthOverrun) {
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(MsgType::kJoin));
  payload.insert(payload.end(), 4, 0);  // request id
  for (int i = 0; i < 4; ++i) payload.push_back(0);         // node
  payload.insert(payload.end(), {0x00, 0x00, 0x01, 0x00});  // len 256...
  payload.push_back('1');                                   // ...1 byte
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(Wire, RejectsHotKeyReportBeyondEntryCap) {
  // A declared entry count above the sanity cap is rejected before any
  // entry bytes are read — a hostile peer cannot make the decoder loop.
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(MsgType::kHotKeyReport));
  payload.insert(payload.end(), 4, 0);  // request id
  for (int i = 0; i < 4; ++i) payload.push_back(0);   // node
  for (int i = 0; i < 16; ++i) payload.push_back(0);  // seq + total
  const std::uint32_t n = detect::kMaxHotKeyEntries + 1;
  payload.push_back(static_cast<std::uint8_t>(n >> 24));
  payload.push_back(static_cast<std::uint8_t>(n >> 16));
  payload.push_back(static_cast<std::uint8_t>(n >> 8));
  payload.push_back(static_cast<std::uint8_t>(n));
  EXPECT_FALSE(decode_payload(payload).has_value());

  // At the cap (with the entries actually present) it round-trips.
  Message message;
  message.type = MsgType::kHotKeyReport;
  message.hot.node = 1;
  message.hot.seq = 2;
  for (std::uint32_t i = 0; i < detect::kMaxHotKeyEntries; ++i) {
    message.hot.entries.push_back({i, i + 1});
    message.hot.total += i + 1;
  }
  const std::vector<std::uint8_t> frame = encode(message);
  const auto decoded = decode_payload(
      {frame.data() + kLengthPrefixBytes, frame.size() - kLengthPrefixBytes});
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, message);
}

TEST(Wire, RejectsBatchFramesBeyondEntryCap) {
  // A declared batch count above kMaxBatchEntries is rejected before any
  // entry bytes are read — a hostile peer cannot make the decoder loop or
  // reserve unbounded memory.
  const std::uint32_t n = kMaxBatchEntries + 1;
  for (const MsgType type : {MsgType::kBatchGet, MsgType::kBatchReply}) {
    std::vector<std::uint8_t> payload;
    payload.push_back(static_cast<std::uint8_t>(type));
    payload.insert(payload.end(), 4, 0);  // request id
    payload.push_back(static_cast<std::uint8_t>(n >> 24));
    payload.push_back(static_cast<std::uint8_t>(n >> 16));
    payload.push_back(static_cast<std::uint8_t>(n >> 8));
    payload.push_back(static_cast<std::uint8_t>(n));
    EXPECT_FALSE(decode_payload(payload).has_value())
        << "type=" << static_cast<int>(type);
  }

  // At the cap (with the keys actually present) a kBatchGet round-trips.
  Message message;
  message.type = MsgType::kBatchGet;
  for (std::uint32_t i = 0; i < kMaxBatchEntries; ++i) {
    message.batch_keys.push_back(i * 2654435761ULL);
  }
  const std::vector<std::uint8_t> frame = encode(message);
  const auto decoded = decode_payload(
      {frame.data() + kLengthPrefixBytes, frame.size() - kLengthPrefixBytes});
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, message);
}

TEST(Wire, RejectsBatchGetCountOverrun) {
  // Declared count claims more keys than the payload holds.
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(MsgType::kBatchGet));
  payload.insert(payload.end(), 4, 0);  // request id
  payload.insert(payload.end(), {0x00, 0x00, 0x00, 0x03});  // 3 keys...
  for (int i = 0; i < 8; ++i) payload.push_back(0);         // ...1 present
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(Wire, RejectsBatchReplyWithNonReplyItemSubtype) {
  // An item may only be a per-key reply shape (kValue/kMiss/kRedirect/
  // kError); a request subtype smuggled inside a reply batch is rejected.
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(MsgType::kBatchReply));
  payload.insert(payload.end(), 4, 0);  // request id
  payload.insert(payload.end(), {0x00, 0x00, 0x00, 0x01});  // 1 item
  payload.push_back(static_cast<std::uint8_t>(MsgType::kGet));
  for (int i = 0; i < 8; ++i) payload.push_back(0);  // key
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(Wire, RejectsBatchReplyItemWithEmbeddedLengthOverrun) {
  // kValue item whose inner byte-length claims more than the payload holds.
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(MsgType::kBatchReply));
  payload.insert(payload.end(), 4, 0);  // request id
  payload.insert(payload.end(), {0x00, 0x00, 0x00, 0x01});  // 1 item
  payload.push_back(static_cast<std::uint8_t>(MsgType::kValue));
  for (int i = 0; i < 8; ++i) payload.push_back(0);         // key
  payload.insert(payload.end(), {0x00, 0x00, 0x00, 0x10});  // len 16...
  payload.push_back('a');                                   // ...1 byte
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(InflightTable, MatchesRepliesInAnyOrder) {
  InflightTable<int> table;
  const std::uint32_t a = table.add(10);
  const std::uint32_t b = table.add(20);
  const std::uint32_t c = table.add(30);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, a + 2);
  EXPECT_EQ(table.take(b), 20);
  EXPECT_FALSE(table.take(b).has_value()) << "a request is answered once";
  ASSERT_NE(table.oldest(), nullptr);
  EXPECT_EQ(*table.oldest(), 10);
  EXPECT_EQ(table.take(a), 10);
  ASSERT_NE(table.oldest(), nullptr);
  EXPECT_EQ(*table.oldest(), 30);
  EXPECT_EQ(table.find(c + 1), nullptr) << "never minted";
  EXPECT_EQ(table.take(c), 30);
  EXPECT_EQ(table.oldest(), nullptr);
}

TEST(InflightTable, IdsWrapPastUint32Max) {
  InflightTable<std::uint64_t> table(UINT32_MAX - 3);
  // Answer the first two so the window starts mid-ring, then outgrow the
  // ring three times across the wrap.
  ASSERT_TRUE(table.take(table.add(0)).has_value());
  ASSERT_TRUE(table.take(table.add(0)).has_value());
  std::vector<std::uint32_t> ids;
  for (std::uint64_t v = 0; v < 40; ++v) ids.push_back(table.add(v));
  EXPECT_EQ(ids[0], UINT32_MAX - 1);
  EXPECT_EQ(ids[1], UINT32_MAX);
  EXPECT_EQ(ids[2], 0u);
  // Answered newest first, every id still finds its own entry.
  for (std::size_t i = ids.size(); i-- > 0;) {
    ASSERT_EQ(table.take(ids[i]), i) << "id " << ids[i];
  }
  EXPECT_EQ(table.oldest(), nullptr);
  EXPECT_EQ(table.next_id(), ids.back() + 1);
  EXPECT_EQ(table.find(UINT32_MAX), nullptr);
}

TEST(InflightTable, DrainHandsBackOldestFirstAndIdsKeepCounting) {
  InflightTable<int> table;
  for (int v = 0; v < 5; ++v) table.add(v);
  table.take(1);
  table.take(3);
  EXPECT_EQ(table.drain(), (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(table.oldest(), nullptr);
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.add(7), 5u);
  ASSERT_NE(table.find(5), nullptr);
  EXPECT_EQ(*table.find(5), 7);
}

TEST(Wire, MakeValueIsDeterministicAndSized) {
  EXPECT_EQ(make_value(17, 64), make_value(17, 64));
  EXPECT_NE(make_value(17, 64), make_value(18, 64));
  EXPECT_EQ(make_value(3, 64).size(), 64u);
  EXPECT_EQ(make_value(3, 16).substr(0, 3), "v3:");
  // Long key ids may exceed a tiny requested size; content wins over size.
  EXPECT_EQ(make_value(123456789, 4).substr(0, 1), "v");
}

TEST(EndpointList, ParsesTheAcceptedForms) {
  struct Case {
    const char* text;
    std::vector<Endpoint> want;
  };
  const Case cases[] = {
      {"", {}},
      {"7001", {{"127.0.0.1", 7001}}},
      {"10.0.0.2:7001", {{"10.0.0.2", 7001}}},
      {"127.0.0.1:1,2,10.0.0.3:65535",
       {{"127.0.0.1", 1}, {"127.0.0.1", 2}, {"10.0.0.3", 65535}}},
      // An empty entry keeps its index: entry i is always node i.
      {",127.0.0.1:7002", {{"", 0}, {"127.0.0.1", 7002}}},
      {"127.0.0.1:7001,,7003",
       {{"127.0.0.1", 7001}, {"", 0}, {"127.0.0.1", 7003}}},
      {"7001,", {{"127.0.0.1", 7001}, {"", 0}}},
  };
  for (const Case& c : cases) {
    const auto parsed = parse_endpoints(c.text);
    ASSERT_TRUE(parsed.has_value()) << "'" << c.text << "'";
    EXPECT_EQ(*parsed, c.want) << "'" << c.text << "'";
  }
}

TEST(EndpointList, RejectsMalformedEntries) {
  // The port is the whole rest of the entry and lies in 1..65535.
  for (const char* text :
       {"7001junk", "7001x", "127.0.0.1:1,127.0.0.1:7002junk", "0",
        "127.0.0.1:0", "65536", "127.0.0.1:99999", "-1", "+7001", " 7001",
        "7001 ", "127.0.0.1:", ":7001", "host", "127.0.0.1:0x1b59"}) {
    EXPECT_FALSE(parse_endpoints(text).has_value()) << "'" << text << "'";
  }
}

}  // namespace
}  // namespace scp::net
