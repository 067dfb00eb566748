#include "mbd/comm/transport_tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "mbd/comm/fabric.hpp"

namespace mbd::comm {
namespace wire {
namespace {

void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFU));
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFU));
}

void put_i32(std::vector<std::byte>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

// Reserve the length prefix, append the body, patch the prefix.
std::vector<std::byte> begin_frame(FrameType type) {
  std::vector<std::byte> out;
  put_u32(out, 0);  // patched by end_frame
  put_u8(out, static_cast<std::uint8_t>(type));
  return out;
}

std::vector<std::byte> end_frame(std::vector<std::byte> out) {
  const auto len = static_cast<std::uint32_t>(out.size() - 4);
  for (int i = 0; i < 4; ++i)
    out[static_cast<std::size_t>(i)] =
        static_cast<std::byte>((len >> (8 * i)) & 0xFFU);
  return out;
}

// Bounds-checked little-endian reads over one frame body.
struct Cursor {
  const std::byte* p;
  std::size_t n;

  void need(std::size_t k) const {
    if (n < k) throw ::mbd::Error("mbd::comm wire: truncated frame");
  }
  std::uint8_t u8() {
    need(1);
    const auto v = static_cast<std::uint8_t>(*p);
    ++p;
    --n;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    n -= 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    n -= 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
};

}  // namespace

std::vector<std::byte> encode_hello(int rank, int world_size) {
  auto out = begin_frame(FrameType::Hello);
  put_u32(out, kMagic);
  put_u32(out, kProtocolVersion);
  put_i32(out, world_size);
  put_i32(out, rank);
  return end_frame(std::move(out));
}

std::vector<std::byte> encode_message(int epoch, const Message& msg) {
  auto out = begin_frame(FrameType::Msg);
  out.reserve(out.size() + 36 + msg.payload.size());
  put_i32(out, epoch);
  put_u64(out, msg.context);
  put_i32(out, msg.source);
  put_i32(out, msg.tag);
  put_u64(out, msg.seq);
  put_u64(out, msg.trace_id);
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
  return end_frame(std::move(out));
}

std::vector<std::byte> encode_retry_request(int epoch, int starving_rank) {
  auto out = begin_frame(FrameType::RetryRequest);
  put_i32(out, epoch);
  put_i32(out, starving_rank);
  return end_frame(std::move(out));
}

std::vector<std::byte> encode_peer_failure(int epoch, int failed_rank,
                                           std::string_view what) {
  auto out = begin_frame(FrameType::PeerFailure);
  put_i32(out, epoch);
  put_i32(out, failed_rank);
  put_u32(out, static_cast<std::uint32_t>(what.size()));
  for (const char c : what) out.push_back(static_cast<std::byte>(c));
  return end_frame(std::move(out));
}

std::vector<std::byte> encode_goodbye() {
  return end_frame(begin_frame(FrameType::Goodbye));
}

void FrameDecoder::feed(std::span<const std::byte> bytes) {
  // Compact lazily: once the consumed prefix dominates, drop it so the
  // buffer does not grow without bound over a long-lived connection.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameDecoder::next() {
  if (buffered() < 4) return std::nullopt;
  Cursor len_cur{buf_.data() + pos_, 4};
  const std::uint32_t len = len_cur.u32();
  if (len < 1 || len > kMaxFrameBytes) {
    throw ::mbd::Error("mbd::comm wire: bad frame length");
  }
  if (buffered() < 4 + static_cast<std::size_t>(len)) return std::nullopt;

  Cursor c{buf_.data() + pos_ + 4, len};
  Frame f;
  const std::uint8_t type = c.u8();
  switch (type) {
    case static_cast<std::uint8_t>(FrameType::Hello): {
      f.type = FrameType::Hello;
      const std::uint32_t magic = c.u32();
      const std::uint32_t version = c.u32();
      if (magic != kMagic || version != kProtocolVersion) {
        throw ::mbd::Error("mbd::comm wire: bad hello (magic/version)");
      }
      f.world_size = c.i32();
      f.rank = c.i32();
      break;
    }
    case static_cast<std::uint8_t>(FrameType::Msg): {
      f.type = FrameType::Msg;
      f.epoch = c.i32();
      f.msg.context = c.u64();
      f.msg.source = c.i32();
      f.msg.tag = c.i32();
      f.msg.seq = c.u64();
      f.msg.trace_id = c.u64();
      f.msg.payload.assign(c.p, c.p + c.n);
      break;
    }
    case static_cast<std::uint8_t>(FrameType::RetryRequest): {
      f.type = FrameType::RetryRequest;
      f.epoch = c.i32();
      f.rank = c.i32();
      break;
    }
    case static_cast<std::uint8_t>(FrameType::PeerFailure): {
      f.type = FrameType::PeerFailure;
      f.epoch = c.i32();
      f.rank = c.i32();
      const std::uint32_t what_len = c.u32();
      c.need(what_len);
      f.what.assign(reinterpret_cast<const char*>(c.p), what_len);
      break;
    }
    case static_cast<std::uint8_t>(FrameType::Goodbye): {
      f.type = FrameType::Goodbye;
      break;
    }
    default:
      throw ::mbd::Error("mbd::comm wire: unknown frame type");
  }
  pos_ += 4 + static_cast<std::size_t>(len);
  return f;
}

void write_all(int fd, std::span<const std::byte> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd pfd {};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      ::poll(&pfd, 1, /*timeout_ms=*/100);
      continue;
    }
    throw ::mbd::Error("mbd::comm wire: write failed (errno " +
                       std::to_string(errno) + ')');
  }
}

}  // namespace wire

namespace {

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  MBD_CHECK_MSG(::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) == 1,
                "tcp transport: bad IPv4 address '" << host << '\'');
  return addr;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpTransport::TcpTransport(int world_size, int rank, const std::string& host,
                           std::uint16_t port, TcpOptions opts)
    : world_size_(world_size),
      rank_(rank),
      participants_(world_size + opts.spares),
      opts_(opts) {
  MBD_CHECK_GT(world_size_, 1);
  MBD_CHECK(opts_.spares >= 0);
  MBD_CHECK_MSG(rank_ >= 0 && rank_ < participants_,
                "tcp transport: rank " << rank_ << " out of range");
  local_slot_ = rank_ < world_size_ ? rank_ : -1;
  slot_owner_.resize(static_cast<std::size_t>(world_size_));
  for (int s = 0; s < world_size_; ++s)
    slot_owner_[static_cast<std::size_t>(s)] = s;
  dead_.assign(static_cast<std::size_t>(participants_), 0);
  peers_.reserve(static_cast<std::size_t>(participants_));
  for (int r = 0; r < participants_; ++r)
    peers_.push_back(std::make_unique<Peer>());

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MBD_CHECK_MSG(listen_fd_ >= 0, "tcp transport: socket() failed (errno "
                                     << errno << ')');
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(host, port);
  MBD_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0,
                "tcp transport: cannot bind " << host << ':' << port
                                              << " (errno " << errno << ')');
  MBD_CHECK_MSG(::listen(listen_fd_, participants_) == 0,
                "tcp transport: listen failed (errno " << errno << ')');
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  MBD_CHECK_MSG(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                              &bound_len) == 0,
                "tcp transport: getsockname failed (errno " << errno << ')');
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down, or fatal — either way, stop
    }
    if (closing_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    std::lock_guard lock(mu_);
    ++recv_loops_live_;
    recv_threads_.emplace_back(
        [this, fd] { receive_loop(/*peer_rank=*/-1, fd); });
  }
}

void TcpTransport::receive_loop(int peer_rank, int fd) {
  // peer_rank stays -1 until this connection's first frame — a Hello —
  // identifies the dialing rank. The same decoder keeps running afterwards:
  // a peer may pipeline its first messages directly behind the Hello.
  wire::FrameDecoder dec;
  std::vector<std::byte> buf(1U << 16);
  bool clean = false;
  bool running = true;
  while (running) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // reset or force-closed
    }
    if (n == 0) break;  // EOF
    try {
      dec.feed({buf.data(), static_cast<std::size_t>(n)});
      while (auto f = dec.next()) {
        if (peer_rank < 0) {
          // The Hello's world_size field carries the total participant
          // count so actives and spares validate the same mesh shape.
          if (f->type != wire::FrameType::Hello ||
              f->world_size != participants_ || f->rank < 0 ||
              f->rank >= participants_ || f->rank == rank_) {
            running = false;  // stranger or misconfigured peer
            break;
          }
          bool duplicate = false;
          {
            std::lock_guard lock(mu_);
            if (peers_[static_cast<std::size_t>(f->rank)]->recv_fd >= 0) {
              duplicate = true;
            } else {
              peers_[static_cast<std::size_t>(f->rank)]->recv_fd = fd;
              peer_rank = f->rank;
              ++inbound_peers_;
            }
          }
          cv_.notify_all();
          if (duplicate) running = false;
          continue;
        }
        if (!handle_frame(peer_rank, std::move(*f))) {
          clean = true;
          running = false;
        }
      }
    } catch (const PoisonedError&) {
      // Local fabric torn down while depositing; keep draining — the peer's
      // Goodbye (or the next epoch's frames) still matter.
    } catch (const ::mbd::Error&) {
      if (peer_rank >= 0) fail_peer_phys(peer_rank, "malformed frame stream");
      running = false;
    }
  }
  if (!clean && peer_rank >= 0 &&
      !closing_.load(std::memory_order_relaxed)) {
    fail_peer_phys(peer_rank, "connection closed without goodbye");
  }
  if (peer_rank < 0) ::close(fd);  // never registered; nobody else owns it
  {
    std::lock_guard lock(mu_);
    --recv_loops_live_;
  }
  cv_.notify_all();
}

bool TcpTransport::handle_frame(int peer_rank, wire::Frame f) {
  switch (f.type) {
    case wire::FrameType::Goodbye: {
      std::lock_guard lock(mu_);
      ++goodbyes_seen_;
      return false;
    }
    case wire::FrameType::PeerFailure: {
      bool current = false;
      {
        std::lock_guard lock(mu_);
        current = f.epoch >= epoch_;
      }
      // A stale failure is a ghost of an epoch both sides already tore
      // down; only a current-or-future one poisons this run.
      if (current) fail_peer(f.rank, f.what);
      return true;
    }
    case wire::FrameType::Msg:
    case wire::FrameType::RetryRequest: {
      std::shared_ptr<FaultInjector> injector;
      {
        std::lock_guard lock(mu_);
        if (f.epoch > epoch_) {
          // The sender already restarted into a later epoch; buffer until
          // our own rebuild attaches a fresh fabric and flushes these.
          pending_.push_back(std::move(f));
          return true;
        }
        if (f.epoch < epoch_) return true;  // stale — drop
        if (f.type == wire::FrameType::Msg) {
          if (fabric_ == nullptr) {
            // Current-epoch frame but no local World yet: a fast peer can
            // legitimately race ahead of our World construction (each
            // process builds its World on its own clock after the mesh
            // handshake). Buffer — attach() flushes — rather than drop.
            pending_.push_back(std::move(f));
            return true;
          }
          deposit_local_locked(std::move(f.msg));
          return true;
        }
        if (fabric_ != nullptr) injector = fabric_->injector;
      }
      // RetryRequest: the starving remote rank asks us to flush whatever
      // our injector swallowed or deferred for it; the flush re-enters
      // deposit() and goes back over the wire.
      if (injector != nullptr) injector->retry_deliver(*this, f.rank);
      return true;
    }
    case wire::FrameType::Hello:
      fail_peer_phys(peer_rank, "protocol error: unexpected Hello mid-stream");
      return false;
  }
  return true;
}

void TcpTransport::deposit_local_locked(Message msg) {
  if (fabric_ == nullptr) return;  // between runs; nothing to feed
  if (local_slot_ < 0) return;     // idle spare: no mailbox to feed yet
  if (fabric_->poisoned.load(std::memory_order_acquire)) return;
  fabric_->mailboxes[static_cast<std::size_t>(local_slot_)].push(
      std::move(msg));
}

int TcpTransport::local_slot() const {
  std::lock_guard lock(mu_);
  return local_slot_;
}

void TcpTransport::fail_peer(int slot, const std::string& what) {
  {
    std::lock_guard lock(mu_);
    if (!failure_) {
      std::ostringstream os;
      os << "rank " << slot << " failed off-process: " << what;
      failure_ = std::make_exception_ptr(RankFailure(os.str(), slot));
      failed_slot_ = slot;
    }
    // Poison under mu_: a rebuild detaches (attach(nullptr) takes mu_)
    // before it destroys the old fabric, so the fabric outlives this call.
    if (fabric_ != nullptr) fabric_->poison_all();
  }
  cv_.notify_all();  // wake await_failure on an idle spare
}

void TcpTransport::fail_peer_phys(int phys, const std::string& what) {
  int slot = -1;
  {
    std::lock_guard lock(mu_);
    // A participant replaced by promotion is expected to disappear — its
    // late EOF must not poison the repaired epoch. An idle spare dying only
    // shrinks the pool; no active slot is affected.
    if (dead_[static_cast<std::size_t>(phys)] != 0) return;
    for (int s = 0; s < world_size_; ++s) {
      if (slot_owner_[static_cast<std::size_t>(s)] == phys) {
        slot = s;
        break;
      }
    }
  }
  if (slot < 0) return;
  fail_peer(slot, what);
}

void TcpTransport::connect_mesh(const std::vector<TcpEndpoint>& peers) {
  MBD_CHECK_EQ(peers.size(), static_cast<std::size_t>(participants_));
  const auto deadline =
      std::chrono::steady_clock::now() + opts_.connect_timeout;
  const auto hello = wire::encode_hello(rank_, participants_);
  for (int r = 0; r < participants_; ++r) {
    if (r == rank_) continue;
    const sockaddr_in addr =
        make_addr(peers[static_cast<std::size_t>(r)].host,
                  peers[static_cast<std::size_t>(r)].port);
    int fd = -1;
    while (true) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      MBD_CHECK_MSG(fd >= 0, "tcp transport: socket() failed (errno "
                                 << errno << ')');
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        break;
      }
      ::close(fd);
      fd = -1;
      // Peers start in any order; refused dials retry until the deadline.
      MBD_CHECK_MSG(std::chrono::steady_clock::now() < deadline,
                    "tcp transport: rank "
                        << rank_ << " cannot connect to rank " << r << " at "
                        << peers[static_cast<std::size_t>(r)].host << ':'
                        << peers[static_cast<std::size_t>(r)].port);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    set_nodelay(fd);
    wire::write_all(fd, hello);
    std::lock_guard lock(peers_[static_cast<std::size_t>(r)]->send_mu);
    peers_[static_cast<std::size_t>(r)]->send_fd = fd;
  }
  std::unique_lock lock(mu_);
  MBD_CHECK_MSG(
      cv_.wait_until(lock, deadline,
                     [&] { return inbound_peers_ == participants_ - 1; }),
      "tcp transport: rank " << rank_ << " timed out waiting for "
                             << participants_ - 1 - inbound_peers_
                             << " peer(s) to dial in");
}

void TcpTransport::deposit(int dst, Message msg) {
  int epoch = 0;
  bool local = false;
  {
    std::lock_guard lock(mu_);
    epoch = epoch_;
    local = dst == local_slot_;
    // Local deposits happen on retransmission flushes whose starving rank
    // is this participant's slot.
    if (local) deposit_local_locked(std::move(msg));
  }
  if (!local) send_frame(dst, wire::encode_message(epoch, msg));
}

void TcpTransport::send_frame(int dst_slot, std::span<const std::byte> bytes) {
  int phys = dst_slot;
  {
    // Slots above world_size never occur; a slot's owner changes only under
    // promote(), which runs with no rank threads sending.
    std::lock_guard lock(mu_);
    if (dst_slot >= 0 && dst_slot < world_size_) {
      phys = slot_owner_[static_cast<std::size_t>(dst_slot)];
    }
  }
  Peer& p = *peers_[static_cast<std::size_t>(phys)];
  std::lock_guard lock(p.send_mu);
  if (p.send_fd < 0) {
    throw PoisonedError("tcp transport: no connection to rank " +
                        std::to_string(dst_slot));
  }
  try {
    wire::write_all(p.send_fd, bytes);
  } catch (const ::mbd::Error& e) {
    // The wire to dst is gone: record the rank failure (poisoning the local
    // fabric) and surface a PoisonedError to the sending rank thread, which
    // World::run treats as the secondary wakeup it is.
    fail_peer(dst_slot, std::string("send failed: ") + e.what());
    throw PoisonedError("tcp transport: send to rank " +
                        std::to_string(dst_slot) + " failed");
  }
}

void TcpTransport::request_retransmit(int dst) {
  int epoch = 0;
  int my_slot = -1;
  {
    std::lock_guard lock(mu_);
    epoch = epoch_;
    my_slot = local_slot_;
  }
  const auto frame = wire::encode_retry_request(epoch, dst);
  for (int s = 0; s < world_size_; ++s) {
    if (s == my_slot) continue;
    try {
      send_frame(s, frame);
    } catch (const PoisonedError&) {
      // Retry ticks must not add failure causes; the disconnect path has
      // already recorded one if the peer is truly gone.
    }
  }
}

void TcpTransport::broadcast_failure(const std::string& what) {
  int epoch = 0;
  int my_slot = -1;
  {
    std::lock_guard lock(mu_);
    epoch = epoch_;
    my_slot = local_slot_;
  }
  if (my_slot < 0) return;  // an idle spare has no slot to report
  // Idle spares hold no slot but are failure *detectors*: they must hear
  // PeerFailure too (their await_failure is what triggers promotion), so the
  // broadcast also goes to every physical participant outside the slot
  // table.
  std::vector<int> idle_spares;
  {
    std::lock_guard lock(mu_);
    for (int p = world_size_; p < participants_; ++p) {
      if (p == rank_ || dead_[static_cast<std::size_t>(p)] != 0) continue;
      bool owns_slot = false;
      for (int s = 0; s < world_size_; ++s) {
        if (slot_owner_[static_cast<std::size_t>(s)] == p) owns_slot = true;
      }
      if (!owns_slot) idle_spares.push_back(p);
    }
  }
  const auto frame = wire::encode_peer_failure(epoch, my_slot, what);
  for (int s = 0; s < world_size_; ++s) {
    if (s == my_slot) continue;
    try {
      send_frame(s, frame);
    } catch (const PoisonedError&) {
      // Best effort: a peer that is already gone does not need the news.
    }
  }
  for (const int p : idle_spares) {
    try {
      send_frame(p, frame);  // dst >= world_size: routed by physical id
    } catch (const PoisonedError&) {
      // A dead spare just shrinks the pool.
    }
  }
}

std::exception_ptr TcpTransport::take_failure() {
  std::lock_guard lock(mu_);
  return std::exchange(failure_, nullptr);
}

void TcpTransport::attach(detail::Fabric* fabric) {
  // Called with no local rank threads running (Fabric construction, or a
  // detach at the start of a rebuild/repair). Flush frames buffered for the
  // epoch this fabric will run: peers that restarted before us may have
  // sent them already. Detached (nullptr), inbound frames buffer instead of
  // landing in a dying fabric's mailboxes.
  std::deque<wire::Frame> due;
  {
    std::lock_guard lock(mu_);
    fabric_ = fabric;
    if (fabric == nullptr) return;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->epoch <= epoch_) {
        due.push_back(std::move(*it));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& f : due) handle_frame(f.msg.source, std::move(f));
}

void TcpTransport::detach(detail::Fabric* fabric) {
  // Under mu_, so a receive thread is never mid-deposit into `fabric` once
  // this returns.
  std::lock_guard lock(mu_);
  if (fabric_ == fabric) fabric_ = nullptr;
}

void TcpTransport::begin_epoch(int epoch) {
  std::lock_guard lock(mu_);
  epoch_ = epoch;
  failure_ = nullptr;
  failed_slot_ = -1;
}

void TcpTransport::promote(int slot, int spare) {
  std::lock_guard lock(mu_);
  MBD_CHECK_MSG(slot >= 0 && slot < world_size_,
                "tcp transport: promoted slot " << slot << " out of range");
  MBD_CHECK_MSG(spare >= 0 && spare < participants_,
                "tcp transport: spare participant " << spare
                                                    << " out of range");
  const int old = slot_owner_[static_cast<std::size_t>(slot)];
  dead_[static_cast<std::size_t>(old)] = 1;
  slot_owner_[static_cast<std::size_t>(slot)] = spare;
  if (spare == rank_) local_slot_ = slot;
}

std::optional<int> TcpTransport::await_failure(
    std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  cv_.wait_for(lock, timeout,
               [&] { return failed_slot_ >= 0 || goodbyes_seen_ > 0; });
  if (failed_slot_ >= 0) return failed_slot_;
  // A clean Goodbye first means the run finished without needing this
  // spare (or the wait timed out with nothing happening).
  return std::nullopt;
}

void TcpTransport::shutdown() {
  if (closing_.exchange(true)) return;
  // Half-close every send channel behind a Goodbye: peers read the Goodbye,
  // then EOF, and their receive loops exit clean.
  const auto goodbye = wire::encode_goodbye();
  for (int r = 0; r < participants_; ++r) {
    if (r == rank_) continue;
    Peer& p = *peers_[static_cast<std::size_t>(r)];
    std::lock_guard lock(p.send_mu);
    if (p.send_fd >= 0) {
      try {
        wire::write_all(p.send_fd, goodbye);
      } catch (const ::mbd::Error&) {
        // Peer already gone; its receive loop saw the disconnect.
      }
      ::shutdown(p.send_fd, SHUT_WR);
    }
  }
  // Drain until every peer said Goodbye (or died): this doubles as the exit
  // barrier that keeps late senders from seeing a vanished peer. Stuck
  // readers are force-closed after the grace period.
  {
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, opts_.shutdown_timeout,
                      [&] { return recv_loops_live_ == 0; })) {
      for (auto& p : peers_) {
        if (p->recv_fd >= 0) ::shutdown(p->recv_fd, SHUT_RD);
      }
    }
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> drains;
  {
    std::lock_guard lock(mu_);
    drains.swap(recv_threads_);
  }
  for (auto& t : drains) t.join();
  close_all_fds();
}

void TcpTransport::kill_for_test() {
  if (closing_.exchange(true)) return;
  for (auto& p : peers_) {
    std::lock_guard lock(p->send_mu);
    if (p->send_fd >= 0) ::shutdown(p->send_fd, SHUT_RDWR);
  }
  {
    // recv_fd registration happens under mu_ (receive_loop), not send_mu.
    std::lock_guard lock(mu_);
    for (auto& p : peers_) {
      if (p->recv_fd >= 0) ::shutdown(p->recv_fd, SHUT_RDWR);
    }
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> drains;
  {
    std::lock_guard lock(mu_);
    drains.swap(recv_threads_);
  }
  for (auto& t : drains) t.join();
  close_all_fds();
}

void TcpTransport::close_all_fds() {
  for (auto& p : peers_) {
    std::lock_guard lock(p->send_mu);
    if (p->send_fd >= 0) {
      ::close(p->send_fd);
      p->send_fd = -1;
    }
    if (p->recv_fd >= 0) {
      ::close(p->recv_fd);
      p->recv_fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace mbd::comm
