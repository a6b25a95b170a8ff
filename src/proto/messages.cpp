#include "proto/messages.hpp"

#include <cmath>
#include <stdexcept>

#include "proto/wire_endian.hpp"

namespace qolsr {

namespace {

// The codec is pinned little-endian via the shared helpers of
// proto/wire_endian.hpp — the ones the net/ datagram framing uses too, so
// a socket wire run exchanges exactly the bytes the in-process simulation
// serializes. Frames are written into a pre-sized buffer with bulk
// little-endian stores and read back with bounds checked once per field
// group, never per byte.
using wire::load_f64;
using wire::load_le;
using wire::store_f64;
using wire::store_le;

constexpr std::size_t kHeaderBytes = 1 + 4 + 2 + 1 + 1;
constexpr std::size_t kAdvertBytes = 4 + 1 + 6 * 8;
constexpr std::size_t kHelloFixedBytes = 4 + 1 + 2;
constexpr std::size_t kTcFixedBytes = 4 + 2 + 2;
constexpr std::size_t kDataBodyBytes = 4 + 4 + 4;

std::byte* write_header(std::byte* p, const PacketHeader& h) {
  p = store_le(p, static_cast<std::uint8_t>(h.type));
  p = store_le(p, h.originator);
  p = store_le(p, h.sequence);
  p = store_le(p, h.ttl);
  return store_le(p, h.hop_count);
}

bool read_header(const std::byte* p, PacketHeader& h) {
  const auto type = load_le<std::uint8_t>(p);
  if (type != static_cast<std::uint8_t>(MessageType::kHello) &&
      type != static_cast<std::uint8_t>(MessageType::kTc) &&
      type != static_cast<std::uint8_t>(MessageType::kData))
    return false;
  h.type = static_cast<MessageType>(type);
  h.originator = load_le<std::uint32_t>(p + 1);
  h.sequence = load_le<std::uint16_t>(p + 5);
  h.ttl = load_le<std::uint8_t>(p + 7);
  h.hop_count = load_le<std::uint8_t>(p + 8);
  return true;
}

std::byte* write_adverts(std::byte* p, const std::vector<LinkAdvert>& links) {
  p = store_le(p, static_cast<std::uint16_t>(links.size()));
  for (const LinkAdvert& a : links) {
    p = store_le(p, a.neighbor);
    p = store_le(p, static_cast<std::uint8_t>(a.status));
    p = store_f64(p, a.qos.bandwidth);
    p = store_f64(p, a.qos.delay);
    p = store_f64(p, a.qos.jitter);
    p = store_f64(p, a.qos.loss_cost);
    p = store_f64(p, a.qos.energy);
    p = store_f64(p, a.qos.buffers);
  }
  return p;
}

/// Every QoS quantity on the wire is a nonnegative finite measurement; a
/// NaN/Inf/negative double (a bit-flipped frame, or a hostile sender) must
/// not reach the metric algebra.
bool valid_qos(double v) { return std::isfinite(v) && v >= 0.0; }

/// Reads `links.size()` adverts from `p`, which holds exactly that many.
bool read_adverts(const std::byte* p, std::vector<LinkAdvert>& links) {
  for (LinkAdvert& a : links) {
    const auto status = load_le<std::uint8_t>(p + 4);
    if (status < static_cast<std::uint8_t>(LinkStatus::kAsymmetric) ||
        status > static_cast<std::uint8_t>(LinkStatus::kMpr))
      return false;
    a.neighbor = load_le<std::uint32_t>(p);
    a.status = static_cast<LinkStatus>(status);
    a.qos.bandwidth = load_f64(p + 5);
    a.qos.delay = load_f64(p + 13);
    a.qos.jitter = load_f64(p + 21);
    a.qos.loss_cost = load_f64(p + 29);
    a.qos.energy = load_f64(p + 37);
    a.qos.buffers = load_f64(p + 45);
    if (!valid_qos(a.qos.bandwidth) || !valid_qos(a.qos.delay) ||
        !valid_qos(a.qos.jitter) || !valid_qos(a.qos.loss_cost) ||
        !valid_qos(a.qos.energy) || !valid_qos(a.qos.buffers))
      return false;
    p += kAdvertBytes;
  }
  return true;
}

/// Sizes `links` from a frame's advert count once the payload is known to
/// hold exactly that many adverts — a hostile count field must not size a
/// vector the payload cannot back, and trailing garbage is rejected here
/// instead of after count adverts of work.
bool size_adverts(const std::byte* count_at, std::size_t payload_bytes,
                  std::vector<LinkAdvert>& links) {
  const auto count = load_le<std::uint16_t>(count_at);
  if (payload_bytes != count * kAdvertBytes) return false;
  links.resize(count);
  return true;
}

}  // namespace

void serialize_into(std::vector<std::byte>& out, const PacketHeader& header,
                    const HelloMessage& hello) {
  out.resize(kHeaderBytes + kHelloFixedBytes +
             hello.links.size() * kAdvertBytes);
  std::byte* p = write_header(out.data(), header);
  p = store_le(p, hello.originator);
  p = store_le(p, hello.willingness);
  write_adverts(p, hello.links);
}

void serialize_into(std::vector<std::byte>& out, const PacketHeader& header,
                    const TcMessage& tc) {
  out.resize(tc_wire_size(tc.advertised.size()));
  std::byte* p = write_header(out.data(), header);
  p = store_le(p, tc.originator);
  p = store_le(p, tc.ansn);
  write_adverts(p, tc.advertised);
}

void serialize_into(std::vector<std::byte>& out, const PacketHeader& header,
                    const DataMessage& data) {
  out.resize(kHeaderBytes + kDataBodyBytes);
  std::byte* p = write_header(out.data(), header);
  p = store_le(p, data.source);
  p = store_le(p, data.destination);
  store_le(p, data.payload_id);
}

std::vector<std::byte> serialize(const PacketHeader& header,
                                 const HelloMessage& hello) {
  std::vector<std::byte> out;
  serialize_into(out, header, hello);
  return out;
}

std::vector<std::byte> serialize(const PacketHeader& header,
                                 const TcMessage& tc) {
  std::vector<std::byte> out;
  serialize_into(out, header, tc);
  return out;
}

std::vector<std::byte> serialize(const PacketHeader& header,
                                 const DataMessage& data) {
  std::vector<std::byte> out;
  serialize_into(out, header, data);
  return out;
}

bool parse_packet_into(std::span<const std::byte> bytes, ParsedPacket& out) {
  out.hello.reset();
  out.tc.reset();
  out.data.reset();
  if (bytes.size() < kHeaderBytes || !read_header(bytes.data(), out.header))
    return false;
  const std::byte* body = bytes.data() + kHeaderBytes;
  const std::size_t body_bytes = bytes.size() - kHeaderBytes;
  switch (out.header.type) {
    case MessageType::kHello: {
      if (body_bytes < kHelloFixedBytes) return false;
      HelloMessage& hello = out.hello.engage();
      if (!size_adverts(body + 5, body_bytes - kHelloFixedBytes,
                        hello.links) ||
          !read_adverts(body + kHelloFixedBytes, hello.links)) {
        out.hello.reset();
        return false;
      }
      hello.originator = load_le<std::uint32_t>(body);
      hello.willingness = load_le<std::uint8_t>(body + 4);
      return true;
    }
    case MessageType::kTc: {
      if (body_bytes < kTcFixedBytes) return false;
      TcMessage& tc = out.tc.engage();
      if (!size_adverts(body + 6, body_bytes - kTcFixedBytes,
                        tc.advertised) ||
          !read_adverts(body + kTcFixedBytes, tc.advertised)) {
        out.tc.reset();
        return false;
      }
      tc.originator = load_le<std::uint32_t>(body);
      tc.ansn = load_le<std::uint16_t>(body + 4);
      return true;
    }
    case MessageType::kData: {
      if (body_bytes != kDataBodyBytes) return false;
      DataMessage& data = out.data.engage();
      data.source = load_le<std::uint32_t>(body);
      data.destination = load_le<std::uint32_t>(body + 4);
      data.payload_id = load_le<std::uint32_t>(body + 8);
      return true;
    }
  }
  return false;
}

std::optional<ParsedPacket> parse_packet(const std::vector<std::byte>& bytes) {
  ParsedPacket packet;
  if (!parse_packet_into(bytes, packet)) return std::nullopt;
  return packet;
}

void patch_forwarding_header(std::span<std::byte> frame, std::uint8_t ttl,
                             std::uint8_t hop_count) {
  // Header layout (write_header): type u8, originator u32, sequence u16,
  // then ttl u8 and hop_count u8.
  constexpr std::size_t kTtlOffset = 1 + 4 + 2;
  if (frame.size() < kHeaderBytes)
    throw std::out_of_range("patch_forwarding_header: frame too short");
  frame[kTtlOffset] = static_cast<std::byte>(ttl);
  frame[kTtlOffset + 1] = static_cast<std::byte>(hop_count);
}

std::size_t tc_wire_size(std::size_t ans_size) {
  return kHeaderBytes + 4 + 2 + 2 + ans_size * kAdvertBytes;
}

namespace {
/// Serialized data frame: header + source u32 + destination u32 +
/// payload_id u32. The payload id therefore sits at a fixed offset.
constexpr std::size_t kDataFrameBytes = kHeaderBytes + kDataBodyBytes;
constexpr std::size_t kPayloadIdOffset = kHeaderBytes + 8;
}  // namespace

bool is_data_frame(std::span<const std::byte> bytes) {
  return bytes.size() == kDataFrameBytes &&
         static_cast<std::uint8_t>(bytes[0]) ==
             static_cast<std::uint8_t>(MessageType::kData);
}

std::uint32_t peek_data_payload_id(std::span<const std::byte> bytes) {
  if (!is_data_frame(bytes)) return 0;
  return load_le<std::uint32_t>(bytes.data() + kPayloadIdOffset);
}

}  // namespace qolsr
