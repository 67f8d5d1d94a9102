// File system + SCSI disk tests: extents, disk image, read path, the
// IOBuffer-based document cache (association semantics), disk timing.

#include <gtest/gtest.h>

#include <memory>

#include "tests/testbed.h"

namespace escort {
namespace {

TEST(ScsiDisk, AllocatesContiguousExtents) {
  ScsiDiskModule disk;
  uint64_t a = disk.AllocBlocks(3);
  uint64_t b = disk.AllocBlocks(2);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 3u);
  EXPECT_EQ(disk.blocks_allocated(), 5u);
}

TEST(ScsiDisk, DirectWriteAndReadBack) {
  ScsiDiskModule disk;
  uint64_t lba = disk.AllocBlocks(1);
  std::vector<uint8_t> content = {'e', 's', 'c', 'o', 'r', 't'};
  disk.WriteDirect(lba, content);
  std::vector<uint8_t> out;
  ASSERT_TRUE(disk.ReadDirect(lba, content.size(), &out));
  EXPECT_EQ(out, content);
  EXPECT_FALSE(disk.ReadDirect(1000, 16, &out));
}

TEST(ScsiDisk, RequestPacking) {
  uint64_t aux = ScsiDiskModule::PackRequest(123, 4567);
  EXPECT_EQ(ScsiDiskModule::AuxLba(aux), 123u);
  EXPECT_EQ(ScsiDiskModule::AuxLen(aux), 4567u);
}

TEST(FsModule, FilesStoredAsExtentsOnDisk) {
  Testbed tb(ServerConfig::kAccounting);
  FsModule* fs = tb.server->fs();
  const Inode* inode = fs->Lookup("/doc10k");
  ASSERT_NE(inode, nullptr);
  EXPECT_EQ(inode->size, 10240u);
  // The bytes are really on the simulated disk.
  std::vector<uint8_t> raw;
  ASSERT_TRUE(tb.server->scsi()->ReadDirect(inode->lba, inode->size, &raw));
  EXPECT_EQ(raw[0], 'A');
  EXPECT_EQ(raw[25], 'Z');
  EXPECT_EQ(raw[26], 'A');
  EXPECT_EQ(fs->Lookup("/nope"), nullptr);
}

TEST(FsModule, ServedDocumentMatchesDiskContent) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  std::vector<uint8_t> body;
  FnConnOwner owner;
  owner.on_connected = [](TcpPeer* p) {
    std::string req = "GET /doc1k HTTP/1.0\r\n\r\n";
    p->SendData(std::vector<uint8_t>(req.begin(), req.end()));
  };
  owner.on_data = [&](TcpPeer*, std::span<const uint8_t> b) {
    body.insert(body.end(), b.begin(), b.end());
  };
  TcpPeer* peer = m->OpenConnection(tb.server->options().ip, 80, &owner);
  peer->Connect();
  tb.RunFor(0.5);

  // Split off the HTTP header, compare the body byte-for-byte with the
  // disk.
  std::string text(body.begin(), body.end());
  size_t split = text.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  std::string payload = text.substr(split + 4);
  ASSERT_EQ(payload.size(), 1024u);
  const Inode* inode = tb.server->fs()->Lookup("/doc1k");
  std::vector<uint8_t> disk_bytes;
  ASSERT_TRUE(tb.server->scsi()->ReadDirect(inode->lba, inode->size, &disk_bytes));
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), disk_bytes.begin()));
}

TEST(FsModule, CachedBufferAssociatedWithServingPaths) {
  Testbed tb(ServerConfig::kAccountingPd);
  ClientMachine* m = tb.AddClient(0);
  HttpClient client(m, tb.server->options().ip, "/doc1k");
  client.max_requests = 4;
  client.Start();
  tb.RunFor(1.5);
  EXPECT_EQ(client.completed(), 4u);
  // One disk read; subsequent requests hit the document cache, whose
  // buffer was *associated* with each serving path (no copies).
  EXPECT_EQ(tb.server->fs()->cache_misses(), 1u);
  EXPECT_EQ(tb.server->fs()->cache_hits(), 3u);
}

TEST(FsModule, DiskLatencyDelaysFirstRequestOnly) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  HttpClient client(m, tb.server->options().ip, "/doc1b");
  client.max_requests = 2;
  client.Start();

  // First completion: handshake + request + a ~1.5ms disk seek.
  while (client.completed() < 1 && tb.eq.Step()) {
  }
  Cycles first = tb.eq.now();
  while (client.completed() < 2 && tb.eq.Step()) {
  }
  Cycles second = tb.eq.now() - first;
  EXPECT_GT(first, tb.server->scsi()->seek_latency);
  EXPECT_LT(second, first);
}

TEST(FsModule, ConcurrentMissesSerializeOnDiskHead) {
  Testbed tb(ServerConfig::kAccounting);
  // Two different uncached documents requested at once: the second read
  // waits for the head.
  ClientMachine* m1 = tb.AddClient(0);
  ClientMachine* m2 = tb.AddClient(1);
  HttpClient c1(m1, tb.server->options().ip, "/doc1k");
  HttpClient c2(m2, tb.server->options().ip, "/doc10k");
  c1.max_requests = 1;
  c2.max_requests = 1;
  c1.Start();
  c2.Start();
  tb.RunFor(1.0);
  EXPECT_EQ(c1.completed(), 1u);
  EXPECT_EQ(c2.completed(), 1u);
  EXPECT_EQ(tb.server->scsi()->reads_issued(), 2u);
}

}  // namespace
}  // namespace escort
