#include "server/client.hpp"

#include <ostream>
#include <thread>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "support/json.hpp"

namespace lbist {

ClientSummary run_client(const std::string& host, std::uint16_t port,
                         std::string_view manifest, std::ostream& out) {
  net::Socket sock = net::connect_to(host, port);
  ClientSummary summary;

  // Receive concurrently with sending: with both directions streaming, a
  // manifest larger than the socket buffers would otherwise deadlock
  // (server blocked writing responses nobody reads, client blocked
  // sending lines nobody accepts).
  std::thread receiver([&] {
    try {
      net::LineFramer framer;
      std::string line;
      while (net::recv_line(sock.fd(), framer, &line)) {
        out << line << "\n";
        ++summary.responses;
        try {
          const Json j = Json::parse(line);
          if (const Json* s = j.find("status");
              s != nullptr && s->is_string()) {
            if (s->as_string() == "ok") {
              ++summary.ok;
            } else {
              ++summary.errors;
            }
          }
        } catch (const std::exception&) {
          ++summary.errors;  // unparseable response line
        }
      }
    } catch (const Error&) {
      // Connection dropped mid-read; report what was received.
    }
  });

  net::send_all(sock.fd(), manifest);
  if (manifest.empty() || manifest.back() != '\n') {
    net::send_all(sock.fd(), "\n");
  }
  // End-of-requests: the server drains our in-flight jobs, answers them,
  // and closes — which ends the receiver loop.
  sock.shutdown_write();
  receiver.join();
  return summary;
}

void parse_host_port(const std::string& spec, std::string* host,
                     std::uint16_t* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    throw Error("expected host:port, got: " + spec);
  }
  *host = spec.substr(0, colon);
  const std::string p = spec.substr(colon + 1);
  int value = 0;
  try {
    std::size_t used = 0;
    value = std::stoi(p, &used);
    if (used != p.size()) throw Error("bad port");
  } catch (const std::exception&) {
    throw Error("invalid port in " + spec);
  }
  if (value < 1 || value > 65535) throw Error("port out of range in " + spec);
  *port = static_cast<std::uint16_t>(value);
}

}  // namespace lbist
