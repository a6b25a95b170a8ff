#include "proto/messages.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/rng.hpp"

namespace qolsr {
namespace {

LinkQos sample_qos() {
  LinkQos q;
  q.bandwidth = 7.25;
  q.delay = 0.125;
  q.jitter = 0.5;
  q.loss_cost = 0.01;
  q.energy = 3.5;
  q.buffers = 12.0;
  return q;
}

PacketHeader header_of(MessageType type) {
  PacketHeader h;
  h.type = type;
  h.originator = 42;
  h.sequence = 1234;
  h.ttl = 17;
  h.hop_count = 3;
  return h;
}

TEST(Messages, HelloRoundTrip) {
  HelloMessage hello;
  hello.originator = 42;
  hello.willingness = 3;
  hello.links.push_back({7, LinkStatus::kSymmetric, sample_qos()});
  hello.links.push_back({9, LinkStatus::kMpr, sample_qos()});
  hello.links.push_back({11, LinkStatus::kAsymmetric, {}});

  const auto bytes = serialize(header_of(MessageType::kHello), hello);
  const auto parsed = parse_packet(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header, header_of(MessageType::kHello));
  ASSERT_TRUE(parsed->hello.has_value());
  EXPECT_EQ(*parsed->hello, hello);
  EXPECT_FALSE(parsed->tc.has_value());
}

TEST(Messages, TcRoundTrip) {
  TcMessage tc;
  tc.originator = 42;
  tc.ansn = 77;
  tc.advertised.push_back({3, LinkStatus::kSymmetric, sample_qos()});
  const auto bytes = serialize(header_of(MessageType::kTc), tc);
  const auto parsed = parse_packet(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->tc.has_value());
  EXPECT_EQ(*parsed->tc, tc);
}

TEST(Messages, EmptyTcRoundTrip) {
  TcMessage tc;
  tc.originator = 1;
  tc.ansn = 0;
  const auto bytes = serialize(header_of(MessageType::kTc), tc);
  const auto parsed = parse_packet(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->tc->advertised.empty());
}

TEST(Messages, DataRoundTrip) {
  DataMessage data;
  data.source = 5;
  data.destination = 17;
  data.payload_id = 0xdeadbeef;
  const auto bytes = serialize(header_of(MessageType::kData), data);
  const auto parsed = parse_packet(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->data.has_value());
  EXPECT_EQ(*parsed->data, data);
}

TEST(Messages, QosSurvivesExactly) {
  // Doubles must round-trip bit-exactly (bit_cast wire format).
  HelloMessage hello;
  hello.originator = 1;
  LinkQos q = sample_qos();
  q.bandwidth = 0.1 + 0.2;  // not representable exactly — still must match
  hello.links.push_back({2, LinkStatus::kSymmetric, q});
  const auto parsed =
      parse_packet(serialize(header_of(MessageType::kHello), hello));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->hello->links[0].qos.bandwidth, q.bandwidth);
}

TEST(Messages, TruncatedPacketsRejected) {
  HelloMessage hello;
  hello.originator = 42;
  hello.links.push_back({7, LinkStatus::kSymmetric, sample_qos()});
  auto bytes = serialize(header_of(MessageType::kHello), hello);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::byte> truncated(bytes.begin(),
                                     bytes.begin() +
                                         static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(parse_packet(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(Messages, TrailingGarbageRejected) {
  TcMessage tc;
  tc.originator = 3;
  auto bytes = serialize(header_of(MessageType::kTc), tc);
  bytes.push_back(std::byte{0});
  EXPECT_FALSE(parse_packet(bytes).has_value());
}

TEST(Messages, UnknownTypeRejected) {
  DataMessage data;
  auto bytes = serialize(header_of(MessageType::kData), data);
  bytes[0] = std::byte{99};
  EXPECT_FALSE(parse_packet(bytes).has_value());
}

TEST(Messages, BadLinkStatusRejected) {
  HelloMessage hello;
  hello.originator = 42;
  hello.links.push_back({7, LinkStatus::kSymmetric, {}});
  auto bytes = serialize(header_of(MessageType::kHello), hello);
  // Status byte sits right after the 4-byte neighbor id in the advert;
  // adverts start after header (9) + originator (4) + willingness (1) +
  // count (2) = 16, so status is at offset 20.
  bytes[20] = std::byte{0};
  EXPECT_FALSE(parse_packet(bytes).has_value());
}

TEST(Messages, HostileCountFieldRejectedBeforeAllocation) {
  // A bit-flipped or hostile advert-count field must be rejected by the
  // length check, not sized into a vector the payload cannot back. TC
  // count sits after header (9) + originator (4) + ansn (2) = offset 15.
  TcMessage tc;
  tc.originator = 3;
  tc.advertised.push_back({1, LinkStatus::kSymmetric, sample_qos()});
  const auto bytes = serialize(header_of(MessageType::kTc), tc);
  for (std::uint16_t hostile : {std::uint16_t{0}, std::uint16_t{2},
                                std::uint16_t{0xffff}}) {
    auto mangled = bytes;
    mangled[15] = std::byte{static_cast<unsigned char>(hostile)};
    mangled[16] = std::byte{static_cast<unsigned char>(hostile >> 8)};
    EXPECT_FALSE(parse_packet(mangled).has_value()) << "count=" << hostile;
  }
  // Hello count sits at offset 14 (header + originator + willingness).
  HelloMessage hello;
  hello.originator = 3;
  hello.links.push_back({1, LinkStatus::kSymmetric, sample_qos()});
  auto hbytes = serialize(header_of(MessageType::kHello), hello);
  hbytes[14] = std::byte{0xff};
  hbytes[15] = std::byte{0xff};
  EXPECT_FALSE(parse_packet(hbytes).has_value());
}

TEST(Messages, NonFiniteOrNegativeQosRejected) {
  // QoS doubles travel as raw bits, so a corrupted frame can carry NaN,
  // infinity or a negative "measurement" — none may reach the metric
  // algebra. Exercise every QoS field.
  const double hostile[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), -1.0};
  for (std::size_t field = 0; field < 6; ++field) {
    for (double v : hostile) {
      LinkQos q = sample_qos();
      switch (field) {
        case 0: q.bandwidth = v; break;
        case 1: q.delay = v; break;
        case 2: q.jitter = v; break;
        case 3: q.loss_cost = v; break;
        case 4: q.energy = v; break;
        case 5: q.buffers = v; break;
      }
      HelloMessage hello;
      hello.originator = 1;
      hello.links.push_back({2, LinkStatus::kSymmetric, q});
      EXPECT_FALSE(
          parse_packet(serialize(header_of(MessageType::kHello), hello))
              .has_value())
          << "field=" << field << " v=" << v;

      TcMessage tc;
      tc.originator = 1;
      tc.advertised.push_back({2, LinkStatus::kSymmetric, q});
      EXPECT_FALSE(parse_packet(serialize(header_of(MessageType::kTc), tc))
                       .has_value())
          << "field=" << field << " v=" << v;
    }
  }
  // Zero is a legal measurement — the guard is strictly about sign and
  // finiteness, not about "suspiciously small".
  HelloMessage hello;
  hello.originator = 1;
  hello.links.push_back({2, LinkStatus::kSymmetric, LinkQos{}});
  EXPECT_TRUE(parse_packet(serialize(header_of(MessageType::kHello), hello))
                  .has_value());
}

TEST(Messages, WirePeeksTolerateArbitraryBytes) {
  // The medium-layer peeks must classify any byte string without a full
  // parse: short frames, empty frames and non-data types are "not data".
  EXPECT_FALSE(is_data_frame({}));
  EXPECT_EQ(peek_data_payload_id({}), 0u);
  std::vector<std::byte> junk(21, std::byte{0xab});
  EXPECT_FALSE(is_data_frame(junk));  // right size, wrong type byte
  DataMessage data;
  data.payload_id = 0xdeadbeef;
  auto bytes = serialize(header_of(MessageType::kData), data);
  EXPECT_TRUE(is_data_frame(bytes));
  EXPECT_EQ(peek_data_payload_id(bytes), 0xdeadbeefu);
  bytes.pop_back();
  EXPECT_FALSE(is_data_frame(bytes));
  EXPECT_EQ(peek_data_payload_id(bytes), 0u);
}

TEST(Messages, TcWireSizeGrowsWithAnsSize) {
  // The motivation for minimizing the ANS (Figs. 6/7): TC size is linear
  // in the advertised-set cardinality.
  const std::size_t empty = tc_wire_size(0);
  const std::size_t five = tc_wire_size(5);
  const std::size_t ten = tc_wire_size(10);
  EXPECT_EQ(ten - five, five - empty);
  EXPECT_GT(five, empty);

  TcMessage tc;
  tc.originator = 1;
  for (NodeId i = 0; i < 5; ++i)
    tc.advertised.push_back({i, LinkStatus::kSymmetric, {}});
  EXPECT_EQ(serialize(header_of(MessageType::kTc), tc).size(),
            tc_wire_size(5));
}

TEST(Messages, PatchedForwardingHeaderEqualsReserialization) {
  // The MPR-forwarding fast path copies a received TC and patches TTL and
  // hop count in place; it must produce exactly what re-serializing the
  // parsed message under the forwarded header would — for every field
  // value the parser accepts, including -0.0 and wrapping hop counts.
  util::Rng rng(20240611);
  const auto draw_qos_field = [&rng]() -> double {
    switch (rng.uniform_int(4)) {
      case 0: return 0.0;
      case 1: return -0.0;  // passes valid_qos (-0.0 >= 0.0) — keep its bit
      case 2: return std::numeric_limits<double>::denorm_min();
      default: return rng.uniform(0.0, 1.0e6);
    }
  };
  for (int trial = 0; trial < 500; ++trial) {
    PacketHeader header;
    header.type = MessageType::kTc;
    header.originator = static_cast<NodeId>(rng.next());
    header.sequence = static_cast<std::uint16_t>(rng.next());
    header.ttl = static_cast<std::uint8_t>(2 + rng.uniform_int(254));
    header.hop_count = static_cast<std::uint8_t>(rng.next());
    TcMessage tc;
    tc.originator = static_cast<NodeId>(rng.next());
    tc.ansn = static_cast<std::uint16_t>(rng.next());
    const std::uint64_t links = rng.uniform_int(12);
    for (std::uint64_t i = 0; i < links; ++i) {
      LinkAdvert a;
      a.neighbor = static_cast<NodeId>(rng.next());
      a.status = static_cast<LinkStatus>(1 + rng.uniform_int(3));
      a.qos = {draw_qos_field(), draw_qos_field(), draw_qos_field(),
               draw_qos_field(), draw_qos_field(), draw_qos_field()};
      tc.advertised.push_back(a);
    }
    const std::vector<std::byte> received = serialize(header, tc);
    const auto parsed = parse_packet(received);
    ASSERT_TRUE(parsed.has_value()) << "trial " << trial;

    PacketHeader forwarded = parsed->header;
    forwarded.ttl -= 1;
    forwarded.hop_count += 1;
    std::vector<std::byte> patched = received;
    patch_forwarding_header(patched, forwarded.ttl, forwarded.hop_count);
    EXPECT_EQ(patched, serialize(forwarded, *parsed->tc)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace qolsr
