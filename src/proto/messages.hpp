#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/node_id.hpp"
#include "metrics/link_qos.hpp"

namespace qolsr {

/// OLSR control-plane message types (plus a data packet for the
/// forwarding-path integration tests).
enum class MessageType : std::uint8_t {
  kHello = 1,
  kTc = 2,
  kData = 3,
};

/// Link status carried in HELLO link adverts (RFC 3626 link codes, reduced
/// to what the ideal-MAC simulation distinguishes).
enum class LinkStatus : std::uint8_t {
  kAsymmetric = 1,  ///< heard the neighbor, handshake incomplete
  kSymmetric = 2,   ///< two-way verified
  kMpr = 3,         ///< symmetric and selected as MPR by the sender
};

/// One advertised link inside a HELLO or TC: the neighbor and the measured
/// QoS of the link to it. QOLSR-style HELLOs piggyback QoS so neighbors can
/// build the QoS-weighted 2-hop view G_u (paper §III-B: "piggybacking
/// neighborhood table in Hello messages").
struct LinkAdvert {
  NodeId neighbor = kInvalidNode;
  LinkStatus status = LinkStatus::kSymmetric;
  LinkQos qos;

  friend bool operator==(const LinkAdvert&, const LinkAdvert&) = default;
};

struct HelloMessage {
  NodeId originator = kInvalidNode;
  std::uint8_t willingness = 3;  ///< WILL_DEFAULT
  std::vector<LinkAdvert> links;

  friend bool operator==(const HelloMessage&, const HelloMessage&) = default;
};

/// Topology Control message: the originator's *advertised neighbor set*
/// with link QoS. In original OLSR this is the MPR-selector set; with a
/// QANS scheme it is the ANS — exactly the set whose size Figs. 6/7 plot,
/// since it determines TC message size.
struct TcMessage {
  NodeId originator = kInvalidNode;
  std::uint16_t ansn = 0;  ///< advertised neighbor sequence number
  std::vector<LinkAdvert> advertised;

  friend bool operator==(const TcMessage&, const TcMessage&) = default;
};

/// Minimal data packet for forwarding tests.
struct DataMessage {
  NodeId source = kInvalidNode;
  NodeId destination = kInvalidNode;
  std::uint32_t payload_id = 0;

  friend bool operator==(const DataMessage&, const DataMessage&) = default;
};

/// Common packet envelope: every OLSR message is flooded/forwarded with an
/// originator sequence number (duplicate suppression) and a TTL.
struct PacketHeader {
  MessageType type = MessageType::kHello;
  NodeId originator = kInvalidNode;
  std::uint16_t sequence = 0;
  std::uint8_t ttl = 255;
  std::uint8_t hop_count = 0;

  friend bool operator==(const PacketHeader&, const PacketHeader&) = default;
};

/// Serialization: portable little-endian wire format. Sizes are what the
/// control-overhead statistics count.
std::vector<std::byte> serialize(const PacketHeader& header,
                                 const HelloMessage& hello);
std::vector<std::byte> serialize(const PacketHeader& header,
                                 const TcMessage& tc);
std::vector<std::byte> serialize(const PacketHeader& header,
                                 const DataMessage& data);

/// The same encodings written into a caller-owned buffer (resized to the
/// frame, capacity kept): the protocol stack serializes every HELLO, TC
/// and data packet into one reused transmit buffer instead of a fresh
/// vector per frame.
void serialize_into(std::vector<std::byte>& out, const PacketHeader& header,
                    const HelloMessage& hello);
void serialize_into(std::vector<std::byte>& out, const PacketHeader& header,
                    const TcMessage& tc);
void serialize_into(std::vector<std::byte>& out, const PacketHeader& header,
                    const DataMessage& data);

/// An optional that keeps its value's storage while disengaged: a parse
/// target reused across frames of different types keeps every advert
/// buffer's capacity, so steady-state parsing allocates nothing. Reads
/// like std::optional (has_value, *, ->); only a parse engages it.
template <typename T>
class Retained {
 public:
  bool has_value() const { return engaged_; }
  const T& operator*() const { return value_; }
  const T* operator->() const { return &value_; }

  /// Engages the slot and hands out the held value for overwriting; its
  /// fields keep whatever the previous engagement left there.
  T& engage() {
    engaged_ = true;
    return value_;
  }
  void reset() { engaged_ = false; }

 private:
  T value_{};
  bool engaged_ = false;
};

/// A parsed frame: the header plus exactly one engaged message, the one
/// `header.type` names.
struct ParsedPacket {
  PacketHeader header;
  Retained<HelloMessage> hello;
  Retained<TcMessage> tc;
  Retained<DataMessage> data;
};

/// Parses a packet produced by `serialize` into reused storage. Returns
/// false on truncated or malformed input (never reads out of bounds); on
/// success exactly the message `out.header.type` names is engaged and
/// every one of its fields was written by this parse.
bool parse_packet_into(std::span<const std::byte> bytes, ParsedPacket& out);

/// Allocating form of parse_packet_into: nullopt on truncated or
/// malformed input.
std::optional<ParsedPacket> parse_packet(const std::vector<std::byte>& bytes);

/// Rewrites the TTL and hop count of a serialized frame in place — the
/// MPR-forwarding fast path. For a frame that parse_packet accepted, the
/// result equals serialize() of the parsed message under the patched
/// header byte for byte (the codec round-trips every field, including the
/// IEEE bits of each QoS double). `frame` must hold at least a header.
void patch_forwarding_header(std::span<std::byte> frame, std::uint8_t ttl,
                             std::uint8_t hop_count);

/// Wire size in bytes of a TC advertising `ans_size` links — used to report
/// control overhead as bytes, connecting set size to the paper's motivation
/// (smaller ANS ⇒ smaller TC messages).
std::size_t tc_wire_size(std::size_t ans_size);

/// Cheap wire peeks for medium-layer accounting (the capacity model must
/// classify and attribute frames without paying a full parse per queued
/// delivery). Both tolerate arbitrary byte strings: a frame that is not a
/// well-formed data packet is simply "not data" / payload id 0.
bool is_data_frame(std::span<const std::byte> bytes);
std::uint32_t peek_data_payload_id(std::span<const std::byte> bytes);

}  // namespace qolsr
