// Shared end-to-end testbed for the integration tests: the Escort web
// server plus client machines on the simulated segment.

#ifndef TESTS_TESTBED_H_
#define TESTS_TESTBED_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/kernel/audit.h"
#include "src/server/web_server.h"
#include "src/workload/http_client.h"

namespace escort {

// Test adapter: a ConnOwner whose hooks are std::functions, so a test can
// wire ad-hoc lambdas without declaring a class. Production drivers
// implement ConnOwner directly (the whole point of the interface is to shed
// per-connection capture state); this shim is for tests only.
struct FnConnOwner : ConnOwner {
  std::function<void(TcpPeer*)> on_connected;
  std::function<void(TcpPeer*, std::span<const uint8_t>)> on_data;
  std::function<void(TcpPeer*)> on_closed;
  std::function<void(TcpPeer*)> on_failed;

  void OnConnected(TcpPeer* p) override {
    if (on_connected) on_connected(p);
  }
  void OnData(TcpPeer* p, std::span<const uint8_t> b) override {
    if (on_data) on_data(p, b);
  }
  void OnClosed(TcpPeer* p) override {
    if (on_closed) on_closed(p);
  }
  void OnFailed(TcpPeer* p) override {
    if (on_failed) on_failed(p);
  }
};

class Testbed {
 public:
  explicit Testbed(ServerConfig config, WebServerOptions opts = WebServerOptions{}) {
    link = std::make_unique<SharedLink>(&eq, NetworkModel::Calibrated());
    opts.config = config;
    server = std::make_unique<EscortWebServer>(&eq, link.get(), opts);
    // Every testbed run doubles as a resource-conservation audit: owner
    // destructions are drain-checked as they happen, and the end-of-run
    // conservation checks fire when the scope is destroyed (aborting the
    // test under ESCORT_AUDIT builds).
    audit = std::make_unique<AuditScope>(&server->kernel());
  }

  ClientMachine* AddClient(int index) {
    Ip4Addr ip = Ip4Addr::FromOctets(10, 0, 1, static_cast<uint8_t>(index + 1));
    auto machine = std::make_unique<ClientMachine>(
        &eq, link.get(), MacAddr::FromIndex(100 + static_cast<uint64_t>(index)), ip,
        NetworkModel::Calibrated(), 1000 + static_cast<uint64_t>(index));
    machine->AddArpEntry(server->options().ip, server->options().mac);
    server->AddArpEntry(ip, machine->mac());
    machines.push_back(std::move(machine));
    return machines.back().get();
  }

  // Adds a client machine on the untrusted side of the Internet.
  ClientMachine* AddUntrustedClient(int index) {
    Ip4Addr ip = Ip4Addr::FromOctets(192, 168, 5, static_cast<uint8_t>(index + 1));
    auto machine = std::make_unique<ClientMachine>(
        &eq, link.get(), MacAddr::FromIndex(300 + static_cast<uint64_t>(index)), ip,
        NetworkModel::Calibrated(), 2000 + static_cast<uint64_t>(index));
    machine->AddArpEntry(server->options().ip, server->options().mac);
    server->AddArpEntry(ip, machine->mac());
    machines.push_back(std::move(machine));
    return machines.back().get();
  }

  void RunFor(double seconds) { eq.RunUntil(eq.now() + CyclesFromSeconds(seconds)); }

  EventQueue eq;
  std::unique_ptr<SharedLink> link;
  std::unique_ptr<EscortWebServer> server;
  // Declared after `server` so the audit's end-of-run checks run (in the
  // reverse-order destructor sweep) while the kernel is still alive.
  std::unique_ptr<AuditScope> audit;
  std::vector<std::unique_ptr<ClientMachine>> machines;
};

}  // namespace escort

#endif  // TESTS_TESTBED_H_
