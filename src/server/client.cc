#include "server/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace adaptidx {
namespace server {

Client::~Client() { Close(); }

Status Client::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("client already connected");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Corruption("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Corruption("connect() failed: " +
                              std::string(strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  recv_buf_.clear();
  return Status::OK();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::SendRaw(const void* data, size_t size) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::write(fd_, p + sent, size - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Corruption("write() failed: " +
                              std::string(strerror(errno)));
  }
  return Status::OK();
}

Status Client::ReadFrame(Frame* out) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  for (;;) {
    size_t consumed = 0;
    Status s = TryDecodeFrame(
        reinterpret_cast<const uint8_t*>(recv_buf_.data()), recv_buf_.size(),
        kDefaultMaxFrameBytes, out, &consumed);
    if (!s.ok()) return s;
    if (consumed > 0) {
      recv_buf_.erase(0, consumed);
      return Status::OK();
    }
    char buf[64 * 1024];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      recv_buf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::NotFound("server closed the connection");
    if (errno == EINTR) continue;
    return Status::Corruption("read() failed: " +
                              std::string(strerror(errno)));
  }
}

Status Client::Rpc(FrameType type, const std::string& payload,
                   FrameType expect, Frame* reply) {
  const uint64_t id = next_request_id_++;
  const std::string frame = EncodeFrame(type, id, payload);
  Status s = SendRaw(frame.data(), frame.size());
  if (!s.ok()) return s;
  for (;;) {
    s = ReadFrame(reply);
    if (!s.ok()) return s;
    if (reply->type == FrameType::kError) {
      // Connection-level breach report: decode the carried status; the
      // server closes after flushing it.
      ResultMsg m;
      Status d = m.Decode(reply->payload);
      Close();
      return d.ok() ? m.ToStatus() : d;
    }
    if (reply->request_id != id) {
      // A blocking client never has a second request outstanding, so a
      // stray id means the stream is out of sync.
      return Status::Corruption("response id does not match request");
    }
    if (reply->type == FrameType::kServerBusy) {
      ++busy_seen_;
      BusyMsg busy;
      if (busy.Decode(reply->payload).ok()) last_busy_ = busy;
      return Status::Busy("server shed the request");
    }
    if (reply->type != expect) {
      return Status::Corruption("unexpected response frame type");
    }
    return Status::OK();
  }
}

Status Client::OpenSession(bool /*snapshot_reads*/, uint32_t client_id) {
  OpenSessionReq req;
  req.client_id = client_id;
  Frame reply;
  Status s = Rpc(FrameType::kOpenSession, req.Encode(), FrameType::kOpenOk,
                 &reply);
  if (!s.ok()) return s;
  OpenOkMsg ok;
  s = ok.Decode(reply.payload);
  if (!s.ok()) return s;
  session_id_ = ok.session_id;
  return Status::OK();
}

Status Client::RunQuery(const QueryReq& req, ResultMsg* out) {
  Frame reply;
  Status s = Rpc(FrameType::kQuery, req.Encode(), FrameType::kResult, &reply);
  if (!s.ok()) return s;
  s = out->Decode(reply.payload);
  if (!s.ok()) return s;
  return out->ToStatus();
}

Status Client::Count(Value lo, Value hi, uint64_t* out) {
  QueryReq req{QueryKind::kCount, lo, hi};
  ResultMsg m;
  Status s = RunQuery(req, &m);
  if (s.ok()) *out = m.count;
  return s;
}

Status Client::Sum(Value lo, Value hi, int64_t* out) {
  QueryReq req{QueryKind::kSum, lo, hi};
  ResultMsg m;
  Status s = RunQuery(req, &m);
  if (s.ok()) *out = m.sum;
  return s;
}

Status Client::MinMax(Value lo, Value hi, Value* min, Value* max,
                      bool* found) {
  QueryReq req{QueryKind::kMinMax, lo, hi};
  ResultMsg m;
  Status s = RunQuery(req, &m);
  if (!s.ok()) return s;
  *found = m.has_minmax != 0;
  if (*found) {
    *min = m.min_value;
    *max = m.max_value;
  }
  return s;
}

Status Client::RowIds(Value lo, Value hi, std::vector<RowId>* out) {
  QueryReq req{QueryKind::kRowIds, lo, hi};
  ResultMsg m;
  Status s = RunQuery(req, &m);
  if (s.ok()) *out = std::move(m.row_ids);
  return s;
}

Status Client::Insert(Value v, RowId* row_id) {
  InsertReq req;
  req.value = v;
  Frame reply;
  Status s = Rpc(FrameType::kInsert, req.Encode(), FrameType::kResult, &reply);
  if (!s.ok()) return s;
  ResultMsg m;
  s = m.Decode(reply.payload);
  if (!s.ok()) return s;
  s = m.ToStatus();
  if (s.ok() && row_id != nullptr) *row_id = m.row_id;
  return s;
}

Status Client::Delete(Value v, RowId row_id) {
  DeleteReq req;
  req.value = v;
  req.row_id = row_id;
  Frame reply;
  Status s = Rpc(FrameType::kDelete, req.Encode(), FrameType::kResult, &reply);
  if (!s.ok()) return s;
  ResultMsg m;
  s = m.Decode(reply.payload);
  if (!s.ok()) return s;
  return m.ToStatus();
}

Status Client::Batch(const std::vector<QueryReq>& queries,
                     std::vector<ResultMsg>* out) {
  BatchReq req;
  req.queries = queries;
  Frame reply;
  Status s = Rpc(FrameType::kBatch, req.Encode(), FrameType::kBatchResult,
                 &reply);
  if (!s.ok()) return s;
  BatchResultMsg batch;
  s = batch.Decode(reply.payload);
  if (!s.ok()) return s;
  *out = std::move(batch.results);
  return Status::OK();
}

Status Client::Stats(StatsMsg* out) {
  Frame reply;
  Status s = Rpc(FrameType::kStats, "", FrameType::kStatsResult, &reply);
  if (!s.ok()) return s;
  return out->Decode(reply.payload);
}

Status Client::Checkpoint(uint64_t* epoch) {
  Frame reply;
  Status s = Rpc(FrameType::kCheckpoint, "", FrameType::kResult, &reply);
  if (!s.ok()) return s;
  ResultMsg m;
  s = m.Decode(reply.payload);
  if (!s.ok()) return s;
  s = m.ToStatus();
  if (s.ok() && epoch != nullptr) *epoch = m.count;
  return s;
}

Status Client::CloseSession() {
  Frame reply;
  Status s = Rpc(FrameType::kClose, "", FrameType::kCloseOk, &reply);
  Close();
  return s;
}

}  // namespace server
}  // namespace adaptidx
