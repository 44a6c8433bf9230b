#include "master/wire.h"

#include <array>
#include <cstring>

#include "util/crc32.h"
#include "util/error.h"

namespace swdual::master {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'S', 'W', 'M', 'S'};
constexpr std::size_t kHeaderSize = 4 + 1 + 4;  // magic + type + length
constexpr std::size_t kTrailerSize = 4;         // crc32

/// Append-only little-endian writer.
class Writer {
 public:
  template <typename T>
  void put(T value) {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xff));
    }
  }
  void put_f64(double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    put(bits);
  }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_unsigned_v<T>);
    if (position_ + sizeof(T) > bytes_.size()) {
      throw IoError("wire frame truncated");
    }
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      value = static_cast<T>(
          value | static_cast<T>(bytes_[position_ + i]) << (8 * i));
    }
    position_ += sizeof(T);
    return value;
  }
  double get_f64() {
    const std::uint64_t bits = get<std::uint64_t>();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }
  bool exhausted() const { return position_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t position_ = 0;
};

std::vector<std::uint8_t> frame(MessageType type,
                                std::vector<std::uint8_t> payload) {
  SWDUAL_REQUIRE(payload.size() <= 0xffffffffu, "payload too large");
  // Constructed from the magic rather than insert-into-empty: GCC 12's
  // -Wstringop-overflow misfires on the latter at -O2 (PR 105329-style).
  std::vector<std::uint8_t> out(kMagic.begin(), kMagic.end());
  out.reserve(kHeaderSize + payload.size() + kTrailerSize);
  out.push_back(static_cast<std::uint8_t>(type));
  const auto length = static_cast<std::uint32_t>(payload.size());
  for (std::size_t i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((length >> (8 * i)) & 0xff));
  }
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t checksum =
      crc32({out.data(), out.size()});  // header + payload
  for (std::size_t i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((checksum >> (8 * i)) & 0xff));
  }
  return out;
}

/// Validate framing and return the payload view.
std::span<const std::uint8_t> unframe(const std::vector<std::uint8_t>& bytes,
                                      MessageType expected) {
  if (bytes.size() < kHeaderSize + kTrailerSize) {
    throw IoError("wire frame too short");
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin())) {
    throw IoError("wire frame bad magic");
  }
  std::uint32_t length = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(bytes[5 + i]) << (8 * i);
  }
  if (bytes.size() != kHeaderSize + length + kTrailerSize) {
    throw IoError("wire frame length mismatch");
  }
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(bytes[bytes.size() - 4 + i])
              << (8 * i);
  }
  const std::uint32_t computed =
      crc32({bytes.data(), bytes.size() - kTrailerSize});
  if (stored != computed) throw IoError("wire frame checksum mismatch");
  const auto type = static_cast<MessageType>(bytes[4]);
  if (type != expected) throw IoError("wire frame has unexpected type");
  return {bytes.data() + kHeaderSize, length};
}

}  // namespace

MessageType frame_type(const std::vector<std::uint8_t>& frame_bytes) {
  if (frame_bytes.size() < kHeaderSize + kTrailerSize) {
    throw IoError("wire frame too short");
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), frame_bytes.begin())) {
    throw IoError("wire frame bad magic");
  }
  const auto type = static_cast<MessageType>(frame_bytes[4]);
  switch (type) {
    case MessageType::kRegister:
    case MessageType::kTaskOrder:
    case MessageType::kTaskReport:
    case MessageType::kShutdown:
      return type;
  }
  throw IoError("wire frame unknown type");
}

std::vector<std::uint8_t> encode_register(const RegisterMsg& msg) {
  Writer writer;
  writer.put<std::uint64_t>(msg.worker_id);
  writer.put<std::uint8_t>(msg.pe.type == sched::PeType::kGpu ? 1 : 0);
  writer.put<std::uint64_t>(msg.pe.index);
  return frame(MessageType::kRegister, writer.take());
}

RegisterMsg decode_register(const std::vector<std::uint8_t>& frame_bytes) {
  Reader reader(unframe(frame_bytes, MessageType::kRegister));
  RegisterMsg msg;
  msg.worker_id = reader.get<std::uint64_t>();
  msg.pe.type = reader.get<std::uint8_t>() == 1 ? sched::PeType::kGpu
                                                : sched::PeType::kCpu;
  msg.pe.index = reader.get<std::uint64_t>();
  if (!reader.exhausted()) throw IoError("register payload has extra bytes");
  return msg;
}

std::vector<std::uint8_t> encode_order(const TaskOrder& order) {
  Writer writer;
  writer.put<std::uint64_t>(order.task_id);
  writer.put<std::uint64_t>(order.query_index);
  return frame(MessageType::kTaskOrder, writer.take());
}

TaskOrder decode_order(const std::vector<std::uint8_t>& frame_bytes) {
  Reader reader(unframe(frame_bytes, MessageType::kTaskOrder));
  TaskOrder order;
  order.task_id = reader.get<std::uint64_t>();
  order.query_index = reader.get<std::uint64_t>();
  if (!reader.exhausted()) throw IoError("order payload has extra bytes");
  return order;
}

std::vector<std::uint8_t> encode_report(const TaskReport& report) {
  Writer writer;
  writer.put<std::uint64_t>(report.task_id);
  writer.put<std::uint64_t>(report.query_index);
  writer.put<std::uint64_t>(report.worker_id);
  writer.put<std::uint8_t>(report.pe.type == sched::PeType::kGpu ? 1 : 0);
  writer.put<std::uint64_t>(report.pe.index);
  writer.put<std::uint8_t>(report.failed ? 1 : 0);
  writer.put<std::uint64_t>(report.cells);
  writer.put_f64(report.wall_seconds);
  writer.put_f64(report.virtual_seconds);
  writer.put<std::uint64_t>(report.filter.candidates);
  writer.put<std::uint64_t>(report.filter.rescans);
  writer.put<std::uint64_t>(report.filter.band_uncertain);
  writer.put<std::uint64_t>(report.hits.size());
  for (const align::SearchHit& hit : report.hits) {
    writer.put<std::uint64_t>(hit.db_index);
    writer.put<std::uint32_t>(static_cast<std::uint32_t>(hit.score));
  }
  return frame(MessageType::kTaskReport, writer.take());
}

TaskReport decode_report(const std::vector<std::uint8_t>& frame_bytes) {
  Reader reader(unframe(frame_bytes, MessageType::kTaskReport));
  TaskReport report;
  report.task_id = reader.get<std::uint64_t>();
  report.query_index = reader.get<std::uint64_t>();
  report.worker_id = reader.get<std::uint64_t>();
  report.pe.type = reader.get<std::uint8_t>() == 1 ? sched::PeType::kGpu
                                                   : sched::PeType::kCpu;
  report.pe.index = reader.get<std::uint64_t>();
  report.failed = reader.get<std::uint8_t>() != 0;
  report.cells = reader.get<std::uint64_t>();
  report.wall_seconds = reader.get_f64();
  report.virtual_seconds = reader.get_f64();
  report.filter.candidates = reader.get<std::uint64_t>();
  report.filter.rescans = reader.get<std::uint64_t>();
  report.filter.band_uncertain = reader.get<std::uint64_t>();
  const auto count = reader.get<std::uint64_t>();
  // Guard against hostile lengths before allocating (12 bytes per hit).
  if (count > frame_bytes.size() / 12) {
    throw IoError("report hit count exceeds frame size");
  }
  report.hits.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto index = reader.get<std::uint64_t>();
    const auto score = static_cast<std::int32_t>(reader.get<std::uint32_t>());
    report.hits.emplace_back(index, score);
  }
  if (!reader.exhausted()) throw IoError("report payload has extra bytes");
  return report;
}

std::vector<std::uint8_t> encode_shutdown() {
  return frame(MessageType::kShutdown, {});
}

}  // namespace swdual::master
