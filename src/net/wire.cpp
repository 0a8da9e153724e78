#include "net/wire.h"

#include <bit>
#include <cstring>
#include <utility>

namespace scp::net {
namespace {

/// Sanity cap on map entries in a kMetricsReply; real registries carry a few
/// dozen metrics, and the frame cap bounds total bytes anyway.
constexpr std::uint32_t kMaxMetricEntries = 4096;

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_bytes(std::vector<std::uint8_t>& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked big-endian cursor over a payload.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  bool read_u8(std::uint8_t& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = data_[pos_++];
    return true;
  }
  bool read_u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
        (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
        (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
        static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return true;
  }
  bool read_u64(std::uint64_t& v) {
    std::uint32_t hi = 0;
    std::uint32_t lo = 0;
    if (!read_u32(hi) || !read_u32(lo)) return false;
    v = (static_cast<std::uint64_t>(hi) << 32) | lo;
    return true;
  }
  bool read_bytes(std::string& out) {
    std::uint32_t len = 0;
    if (!read_u32(len)) return false;
    if (pos_ + len > data_.size()) return false;
    out.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return true;
  }
  bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> encode(const Message& message) {
  std::vector<std::uint8_t> frame;
  encode_into(message, frame);
  return frame;
}

void encode_into(const Message& message, std::vector<std::uint8_t>& frame) {
  // Encode the payload directly after a placeholder length prefix, then
  // patch the prefix — one buffer, no payload-to-frame copy, and no heap
  // traffic at all once `frame` has warmed up to the flow's frame size.
  frame.clear();
  std::vector<std::uint8_t>& payload = frame;
  put_u32(payload, 0);  // length prefix, patched below
  put_u8(payload, static_cast<std::uint8_t>(message.type));
  put_u32(payload, message.id);
  switch (message.type) {
    case MsgType::kGet:
    case MsgType::kMiss:
      put_u64(payload, message.key);
      break;
    case MsgType::kValue:
      put_u64(payload, message.key);
      put_bytes(payload, message.payload);
      break;
    case MsgType::kRedirect:
      put_u64(payload, message.key);
      put_u32(payload, message.node);
      break;
    case MsgType::kPing:
    case MsgType::kPong:
      break;
    case MsgType::kMetricsRequest:
      break;
    case MsgType::kMetricsReply: {
      const auto& m = message.metrics;
      put_u32(payload, static_cast<std::uint32_t>(m.counters.size()));
      for (const auto& [name, value] : m.counters) {
        put_bytes(payload, name);
        put_u64(payload, value);
      }
      put_u32(payload, static_cast<std::uint32_t>(m.gauges.size()));
      for (const auto& [name, value] : m.gauges) {
        put_bytes(payload, name);
        put_u64(payload, static_cast<std::uint64_t>(value));
      }
      put_u32(payload, static_cast<std::uint32_t>(m.timers.size()));
      for (const auto& [name, hist] : m.timers) {
        put_bytes(payload, name);
        put_u8(payload, static_cast<std::uint8_t>(hist.precision()));
        put_u64(payload, hist.min());
        put_u64(payload, hist.max());
        put_u64(payload, std::bit_cast<std::uint64_t>(hist.sum()));
        const auto buckets = hist.nonzero_buckets();
        put_u32(payload, static_cast<std::uint32_t>(buckets.size()));
        for (const auto& [index, count] : buckets) {
          put_u32(payload, index);
          put_u64(payload, count);
        }
      }
      break;
    }
    case MsgType::kError:
      put_u64(payload, message.key);
      put_bytes(payload, message.payload);
      break;
    case MsgType::kPut:
      put_u64(payload, message.key);
      put_bytes(payload, message.payload);
      break;
    case MsgType::kDelete:
    case MsgType::kQuorumGet:
    case MsgType::kVerRead:
      put_u64(payload, message.key);
      break;
    case MsgType::kWriteReply:
      put_u64(payload, message.key);
      put_u64(payload, message.version);
      break;
    case MsgType::kVerValue:
    case MsgType::kReplicate:
      put_u64(payload, message.key);
      put_u64(payload, message.version);
      put_u8(payload, message.flags);
      put_bytes(payload, message.payload);
      break;
    case MsgType::kRepAck:
      put_u64(payload, message.key);
      put_u64(payload, message.version);
      put_u8(payload, message.flags);
      break;
    case MsgType::kJoin:
      put_u32(payload, message.node);
      put_bytes(payload, message.payload);
      break;
    case MsgType::kLeave:
      put_u32(payload, message.node);
      break;
    case MsgType::kHotKeyReport:
      put_u32(payload, message.hot.node);
      put_u64(payload, message.hot.seq);
      put_u64(payload, message.hot.total);
      put_u32(payload, static_cast<std::uint32_t>(message.hot.entries.size()));
      for (const detect::HotKeyEntry& entry : message.hot.entries) {
        put_u64(payload, entry.key);
        put_u64(payload, entry.count);
      }
      break;
    case MsgType::kHotKeySubscribe:
      break;
    case MsgType::kBatchGet:
      put_u32(payload, static_cast<std::uint32_t>(message.batch_keys.size()));
      for (const std::uint64_t key : message.batch_keys) {
        put_u64(payload, key);
      }
      break;
    case MsgType::kBatchReply:
      put_u32(payload, static_cast<std::uint32_t>(message.batch.size()));
      for (const BatchItem& item : message.batch) {
        put_u8(payload, static_cast<std::uint8_t>(item.type));
        put_u64(payload, item.key);
        switch (item.type) {
          case MsgType::kValue:
          case MsgType::kError:
            put_bytes(payload, item.payload);
            break;
          case MsgType::kRedirect:
            put_u32(payload, item.node);
            break;
          default:  // kMiss carries only its key
            break;
        }
      }
      break;
  }
  const std::uint32_t length =
      static_cast<std::uint32_t>(frame.size() - kLengthPrefixBytes);
  frame[0] = static_cast<std::uint8_t>(length >> 24);
  frame[1] = static_cast<std::uint8_t>(length >> 16);
  frame[2] = static_cast<std::uint8_t>(length >> 8);
  frame[3] = static_cast<std::uint8_t>(length);
}

std::optional<Message> decode_payload(std::span<const std::uint8_t> payload) {
  Cursor cursor(payload);
  std::uint8_t raw_type = 0;
  Message message;
  if (!cursor.read_u8(raw_type) || !cursor.read_u32(message.id)) {
    return std::nullopt;
  }
  switch (static_cast<MsgType>(raw_type)) {
    case MsgType::kGet:
    case MsgType::kMiss:
      message.type = static_cast<MsgType>(raw_type);
      if (!cursor.read_u64(message.key)) return std::nullopt;
      break;
    case MsgType::kValue:
      message.type = MsgType::kValue;
      if (!cursor.read_u64(message.key)) return std::nullopt;
      if (!cursor.read_bytes(message.payload)) return std::nullopt;
      break;
    case MsgType::kRedirect:
      message.type = MsgType::kRedirect;
      if (!cursor.read_u64(message.key)) return std::nullopt;
      if (!cursor.read_u32(message.node)) return std::nullopt;
      break;
    case MsgType::kPing:
    case MsgType::kPong:
      message.type = static_cast<MsgType>(raw_type);
      break;
    case MsgType::kMetricsRequest:
      message.type = MsgType::kMetricsRequest;
      break;
    case MsgType::kMetricsReply: {
      message.type = MsgType::kMetricsReply;
      std::uint32_t n = 0;
      if (!cursor.read_u32(n) || n > kMaxMetricEntries) return std::nullopt;
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        std::uint64_t value = 0;
        if (!cursor.read_bytes(name) || !cursor.read_u64(value)) {
          return std::nullopt;
        }
        message.metrics.counters.emplace(std::move(name), value);
      }
      if (!cursor.read_u32(n) || n > kMaxMetricEntries) return std::nullopt;
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        std::uint64_t raw = 0;
        if (!cursor.read_bytes(name) || !cursor.read_u64(raw)) {
          return std::nullopt;
        }
        message.metrics.gauges.emplace(std::move(name),
                                       static_cast<std::int64_t>(raw));
      }
      if (!cursor.read_u32(n) || n > kMaxMetricEntries) return std::nullopt;
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        std::uint8_t precision = 0;
        std::uint64_t min = 0;
        std::uint64_t max = 0;
        std::uint64_t sum_bits = 0;
        std::uint32_t bucket_count = 0;
        if (!cursor.read_bytes(name) || !cursor.read_u8(precision) ||
            !cursor.read_u64(min) || !cursor.read_u64(max) ||
            !cursor.read_u64(sum_bits) || !cursor.read_u32(bucket_count) ||
            bucket_count > kMaxMetricEntries) {
          return std::nullopt;
        }
        std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
        buckets.reserve(bucket_count);
        for (std::uint32_t b = 0; b < bucket_count; ++b) {
          std::uint32_t index = 0;
          std::uint64_t count = 0;
          if (!cursor.read_u32(index) || !cursor.read_u64(count)) {
            return std::nullopt;
          }
          buckets.emplace_back(index, count);
        }
        auto hist = LogHistogram::from_buckets(
            precision, buckets, min, max, std::bit_cast<double>(sum_bits));
        if (!hist.has_value()) return std::nullopt;
        message.metrics.timers.emplace(std::move(name), *std::move(hist));
      }
      break;
    }
    case MsgType::kError:
      message.type = MsgType::kError;
      if (!cursor.read_u64(message.key)) return std::nullopt;
      if (!cursor.read_bytes(message.payload)) return std::nullopt;
      break;
    case MsgType::kPut:
      message.type = MsgType::kPut;
      if (!cursor.read_u64(message.key)) return std::nullopt;
      if (!cursor.read_bytes(message.payload)) return std::nullopt;
      break;
    case MsgType::kDelete:
    case MsgType::kQuorumGet:
    case MsgType::kVerRead:
      message.type = static_cast<MsgType>(raw_type);
      if (!cursor.read_u64(message.key)) return std::nullopt;
      break;
    case MsgType::kWriteReply:
      message.type = MsgType::kWriteReply;
      if (!cursor.read_u64(message.key)) return std::nullopt;
      if (!cursor.read_u64(message.version)) return std::nullopt;
      break;
    case MsgType::kVerValue:
    case MsgType::kReplicate:
      message.type = static_cast<MsgType>(raw_type);
      if (!cursor.read_u64(message.key)) return std::nullopt;
      if (!cursor.read_u64(message.version)) return std::nullopt;
      if (!cursor.read_u8(message.flags)) return std::nullopt;
      if (!cursor.read_bytes(message.payload)) return std::nullopt;
      break;
    case MsgType::kRepAck:
      message.type = MsgType::kRepAck;
      if (!cursor.read_u64(message.key)) return std::nullopt;
      if (!cursor.read_u64(message.version)) return std::nullopt;
      if (!cursor.read_u8(message.flags)) return std::nullopt;
      break;
    case MsgType::kJoin:
      message.type = MsgType::kJoin;
      if (!cursor.read_u32(message.node)) return std::nullopt;
      if (!cursor.read_bytes(message.payload)) return std::nullopt;
      break;
    case MsgType::kLeave:
      message.type = MsgType::kLeave;
      if (!cursor.read_u32(message.node)) return std::nullopt;
      break;
    case MsgType::kHotKeyReport: {
      message.type = MsgType::kHotKeyReport;
      std::uint32_t n = 0;
      if (!cursor.read_u32(message.hot.node) ||
          !cursor.read_u64(message.hot.seq) ||
          !cursor.read_u64(message.hot.total) || !cursor.read_u32(n) ||
          n > detect::kMaxHotKeyEntries) {
        return std::nullopt;
      }
      message.hot.entries.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        detect::HotKeyEntry entry;
        if (!cursor.read_u64(entry.key) || !cursor.read_u64(entry.count)) {
          return std::nullopt;
        }
        message.hot.entries.push_back(entry);
      }
      break;
    }
    case MsgType::kHotKeySubscribe:
      message.type = MsgType::kHotKeySubscribe;
      break;
    case MsgType::kBatchGet: {
      message.type = MsgType::kBatchGet;
      std::uint32_t n = 0;
      if (!cursor.read_u32(n) || n > kMaxBatchEntries) return std::nullopt;
      message.batch_keys.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint64_t key = 0;
        if (!cursor.read_u64(key)) return std::nullopt;
        message.batch_keys.push_back(key);
      }
      break;
    }
    case MsgType::kBatchReply: {
      message.type = MsgType::kBatchReply;
      std::uint32_t n = 0;
      if (!cursor.read_u32(n) || n > kMaxBatchEntries) return std::nullopt;
      message.batch.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        BatchItem item;
        std::uint8_t raw_item = 0;
        if (!cursor.read_u8(raw_item)) return std::nullopt;
        item.type = static_cast<MsgType>(raw_item);
        if (!cursor.read_u64(item.key)) return std::nullopt;
        switch (item.type) {
          case MsgType::kValue:
          case MsgType::kError:
            if (!cursor.read_bytes(item.payload)) return std::nullopt;
            break;
          case MsgType::kRedirect:
            if (!cursor.read_u32(item.node)) return std::nullopt;
            break;
          case MsgType::kMiss:
            break;
          default:  // an item may only be a per-key reply shape
            return std::nullopt;
        }
        message.batch.push_back(std::move(item));
      }
      break;
    }
    default:
      return std::nullopt;
  }
  if (!cursor.exhausted()) return std::nullopt;  // trailing garbage
  return message;
}

void FrameReader::append(std::span<const std::uint8_t> data) {
  if (corrupted_) return;
  // Compact once the consumed prefix dominates, keeping the buffer bounded
  // by a few in-flight frames.
  if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

bool FrameReader::peek_frame(std::uint32_t& length) {
  if (corrupted_) return false;
  if (buffer_.size() - offset_ < kLengthPrefixBytes) return false;
  length = (static_cast<std::uint32_t>(buffer_[offset_]) << 24) |
           (static_cast<std::uint32_t>(buffer_[offset_ + 1]) << 16) |
           (static_cast<std::uint32_t>(buffer_[offset_ + 2]) << 8) |
           static_cast<std::uint32_t>(buffer_[offset_ + 3]);
  if (length > max_payload_) {
    corrupted_ = true;
    return false;
  }
  return buffer_.size() - offset_ >= kLengthPrefixBytes + length;
}

std::optional<std::vector<std::uint8_t>> FrameReader::next_payload() {
  std::uint32_t length = 0;
  if (!peek_frame(length)) return std::nullopt;
  const auto begin =
      buffer_.begin() + static_cast<std::ptrdiff_t>(offset_ +
                                                    kLengthPrefixBytes);
  std::vector<std::uint8_t> payload(begin,
                                    begin + static_cast<std::ptrdiff_t>(length));
  offset_ += kLengthPrefixBytes + length;
  return payload;
}

std::optional<std::span<const std::uint8_t>> FrameReader::next_frame() {
  std::uint32_t length = 0;
  if (!peek_frame(length)) return std::nullopt;
  const std::span<const std::uint8_t> payload(
      buffer_.data() + offset_ + kLengthPrefixBytes, length);
  offset_ += kLengthPrefixBytes + length;
  return payload;
}

std::string make_value(std::uint64_t key, std::uint32_t value_bytes) {
  std::string value;
  value.reserve(value_bytes);
  value.push_back('v');
  value += std::to_string(key);
  value.push_back(':');
  if (value.size() < value_bytes) {
    value.append(value_bytes - value.size(), 'x');
  }
  return value;
}

}  // namespace scp::net
