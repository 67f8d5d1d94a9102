// Connection-slab tests: the generation-tagged Slab<T> table itself, plus
// the client-machine behaviour the generation tags exist to guarantee —
// a deferred closure holding a stale ConnHandle must never act on a
// reincarnated slot, even when the 16-bit local port wraps and a brand-new
// connection reuses both the port *and* the slab slot of a dead one.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/elib/slab.h"
#include "tests/testbed.h"

namespace escort {
namespace {

struct Payload {
  int value = 0;
  uint64_t tag = 0;
};

TEST(Slab, CreateFindRelease) {
  Slab<Payload> slab;
  ConnHandle h = slab.Create();
  ASSERT_TRUE(h.valid());
  Payload* p = slab.Find(h);
  ASSERT_NE(p, nullptr);
  p->value = 42;
  EXPECT_EQ(slab.live(), 1u);
  EXPECT_EQ(slab.Find(h)->value, 42);

  EXPECT_TRUE(slab.Release(h));
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(slab.Find(h), nullptr) << "released handle must not resolve";
  EXPECT_FALSE(slab.Release(h)) << "double release must be rejected";
}

TEST(Slab, NullAndOutOfRangeHandles) {
  Slab<Payload> slab;
  EXPECT_EQ(slab.Find(ConnHandle{}), nullptr);  // gen 0 = null handle
  EXPECT_EQ(slab.Find(ConnHandle{123, 1}), nullptr);
  EXPECT_FALSE(slab.Release(ConnHandle{}));
}

TEST(Slab, GenerationTagRejectsStaleHandleAfterReuse) {
  Slab<Payload> slab;
  ConnHandle a = slab.Create();
  slab.Find(a)->value = 1;
  EXPECT_TRUE(slab.Release(a));

  // Freelist reuse: the next Create takes the same slot back...
  ConnHandle b = slab.Create();
  EXPECT_EQ(b.index, a.index);
  EXPECT_NE(b.gen, a.gen);
  // ...default-initialized, not carrying the old incarnation's state.
  EXPECT_EQ(slab.Find(b)->value, 0);

  // The old handle aliases the storage but not the incarnation.
  EXPECT_EQ(slab.Find(a), nullptr);
  EXPECT_FALSE(slab.Release(a));
  slab.Find(b)->value = 2;
  EXPECT_EQ(slab.Find(b)->value, 2);
}

TEST(Slab, HighWaterAndChunkedCapacity) {
  Slab<Payload> slab;
  EXPECT_EQ(slab.capacity(), 0u);
  EXPECT_EQ(slab.bytes_reserved(), 0u);

  std::vector<ConnHandle> handles;
  for (int i = 0; i < 1500; ++i) {
    handles.push_back(slab.Create());
  }
  EXPECT_EQ(slab.live(), 1500u);
  EXPECT_EQ(slab.high_water(), 1500u);
  // Chunks are 1024 slots: 1500 live slots span two chunks.
  EXPECT_EQ(slab.capacity(), 2 * Slab<Payload>::kChunkSlots);
  EXPECT_EQ(slab.bytes_reserved(), slab.capacity() * Slab<Payload>::slot_bytes());

  for (const ConnHandle& h : handles) {
    EXPECT_TRUE(slab.Release(h));
  }
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(slab.high_water(), 1500u) << "high water is a peak, not a level";
  EXPECT_EQ(slab.capacity(), 2 * Slab<Payload>::kChunkSlots)
      << "chunks are retained for reuse, not returned";

  // Refilling reuses retired slots before growing.
  for (int i = 0; i < 1500; ++i) {
    slab.Create();
  }
  EXPECT_EQ(slab.capacity(), 2 * Slab<Payload>::kChunkSlots);
  EXPECT_EQ(slab.high_water(), 1500u);
}

TEST(Slab, SlotBytesIsCompileTimeAndCoversValue) {
  static_assert(Slab<Payload>::slot_bytes() >= sizeof(Payload));
  static_assert(Slab<TcpPeer>::slot_bytes() >= sizeof(TcpPeer));
}

// The client-machine guarantee the slab exists for: after a connection dies
// and its port is re-issued (the 16-bit wrap), a handle to the dead
// incarnation resolves to nothing — even though the new connection occupies
// the same port *and* the same slab slot.
TEST(ConnSlab, StaleHandleDoesNotResolveAcrossPortWrap) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);

  TcpPeer* a = m->OpenConnection(tb.server->options().ip, 80, nullptr);
  ConnHandle ha = a->handle();
  uint16_t port_a = a->local_port();
  a->Abort();
  EXPECT_EQ(m->ResolvePeer(ha), nullptr);
  EXPECT_EQ(m->conn_count(), 0u);

  // Force the port wrap: the next connection reuses A's port, and the
  // freelist hands back A's slab slot.
  m->set_next_port_for_test(port_a);
  TcpPeer* b = m->OpenConnection(tb.server->options().ip, 80, nullptr);
  EXPECT_EQ(b->local_port(), port_a);
  EXPECT_EQ(b->handle().index, ha.index);
  EXPECT_NE(b->handle().gen, ha.gen);

  EXPECT_EQ(m->ResolvePeer(ha), nullptr) << "stale handle must stay stale";
  EXPECT_EQ(m->ResolvePeer(b->handle()), b);
  b->Abort();
}

// Regression for the port-capture misdelivery this PR fixes: a segment
// arrives for connection A and its dispatch is delayed by the client
// processing model; before the dispatch fires, A dies and a new connection
// B reuses A's port and slot. The dispatch captured A's handle, so it must
// drop the segment — under the old port/pointer capture it would have been
// delivered into B's fresh sequence space (B starts at rcv_nxt == 0, and a
// crafted seq-0 segment lands exactly in-window).
TEST(ConnSlab, DelayedSegmentForDeadConnIsNotMisdelivered) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);

  TcpPeer* a = m->OpenConnection(tb.server->options().ip, 80, nullptr);
  ConnHandle ha = a->handle();
  uint16_t port = a->local_port();

  // A data segment for A lands: DeliverFrame schedules the dispatch
  // (client_processing/4 later) against A's handle.
  TcpHeader hdr;
  hdr.src_port = 80;
  hdr.dst_port = port;
  hdr.seq = 0;
  hdr.flags = kTcpAck | kTcpPsh;
  std::vector<uint8_t> stale_payload = {'s', 't', 'a', 'l', 'e'};
  m->DeliverFrame(BuildTcpFrame(tb.server->options().mac, m->mac(),
                                tb.server->options().ip, m->ip(), hdr, stale_payload));

  // Before the dispatch fires: A dies, B reincarnates its port and slot.
  a->Abort();
  m->set_next_port_for_test(port);
  FnConnOwner owner;
  uint64_t data_events = 0;
  owner.on_data = [&](TcpPeer*, std::span<const uint8_t>) { ++data_events; };
  TcpPeer* b = m->OpenConnection(tb.server->options().ip, 80, &owner);
  ASSERT_EQ(b->local_port(), port);
  ASSERT_EQ(b->handle().index, ha.index);

  tb.RunFor(0.05);

  // The stale segment must have evaporated with A, not leaked into B.
  EXPECT_EQ(b->bytes_received(), 0u);
  EXPECT_EQ(data_events, 0u);
  EXPECT_EQ(b->state(), TcpPeer::State::kClosed) << "B never connected; must be untouched";
  b->Abort();
}

}  // namespace
}  // namespace escort
