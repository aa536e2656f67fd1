#ifndef HYPERPROF_SERVE_FRAME_H_
#define HYPERPROF_SERVE_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workloads/checksum.h"

namespace hyperprof::serve {

/**
 * The serving front door's wire framing: length-prefixed payloads with a
 * CRC32C trailer, designed for pipelined decoding off a nonblocking
 * socket.
 *
 *   [u32 LE payload length][payload bytes][u32 LE CRC32C(payload)]
 *
 * The payload is a protowire-encoded Request or Response (see
 * serve/protocol.h). The length prefix is bounded by kMaxFramePayload so
 * a corrupt or hostile prefix cannot make the decoder buffer unbounded
 * memory, and the checksum is verified before a single payload byte is
 * handed to the message decoder. Both limits are part of the protocol:
 * violations are connection-fatal, never silently skipped (a stream that
 * lied about one frame boundary cannot be resynchronized).
 */

/** Hard cap on one frame's payload size (prefix and trailer excluded). */
constexpr size_t kMaxFramePayload = 1 << 20;

/** Bytes of framing around a payload (length prefix + CRC trailer). */
constexpr size_t kFrameOverhead = 8;

/** Appends one encoded frame for `payload` to `out`. */
void EncodeFrame(const uint8_t* payload, size_t size,
                 std::vector<uint8_t>& out);
inline void EncodeFrame(const std::vector<uint8_t>& payload,
                        std::vector<uint8_t>& out) {
  EncodeFrame(payload.data(), payload.size(), out);
}

/**
 * In-place frame encoding, the one encoder: BeginFrame reserves the length
 * prefix in `out` and returns the payload start offset; the caller then
 * serializes the payload directly into `out` (no intermediate buffer) and
 * EndFrame patches the prefix and appends the CRC trailer. EncodeFrame is
 * this pair around a copy of an already-encoded payload.
 */
size_t BeginFrame(std::vector<uint8_t>& out);
void EndFrame(std::vector<uint8_t>& out, size_t payload_start);

/** Borrowed view of one decoded frame's payload inside the decoder. */
struct FrameView {
  const uint8_t* data = nullptr;
  size_t size = 0;
};

/**
 * Incremental frame decoder over an arbitrarily-chunked byte stream.
 *
 * Feed() buffers input; Next() extracts the earliest complete frame.
 * Chunking never matters: any byte-split of the same stream yields the
 * same frame sequence (pinned by the tests/net fuzz suite). Errors —
 * an oversized length prefix or a checksum mismatch — are sticky: the
 * decoder refuses further input and the connection must be torn down.
 *
 * The zero-copy path skips Feed entirely: receive directly into
 * WritableSpan(), account the bytes with CommitBytes(), and drain with
 * NextView(), which exposes each payload in place. A steady-state
 * connection whose frames fit the warmed buffer allocates nothing;
 * buffer growth is observable via buffer_reallocs().
 */
class FrameDecoder {
 public:
  enum class Status {
    kNeedMore,     // no complete frame buffered
    kFrame,        // one frame extracted
    kOversized,    // length prefix exceeded kMaxFramePayload (sticky)
    kBadChecksum,  // CRC trailer mismatch (sticky)
  };

  /** Buffers `size` bytes; ignored after a sticky error. */
  void Feed(const uint8_t* data, size_t size);

  /**
   * Returns a scratch region of at least `min_bytes` the caller may fill
   * (e.g. the destination of recv). Nothing is buffered until
   * CommitBytes(). Invalidates outstanding FrameViews. Returns nullptr
   * after a sticky error.
   */
  uint8_t* WritableSpan(size_t min_bytes);

  /** Accounts `size` bytes written into the last WritableSpan(). */
  void CommitBytes(size_t size);

  /**
   * Extracts the earliest complete frame into `*payload` (replacing its
   * contents). Call in a loop until it stops returning kFrame — one Feed
   * can complete several pipelined frames.
   */
  Status Next(std::vector<uint8_t>* payload);

  /**
   * Zero-copy variant: points `*view` at the payload inside the decode
   * buffer. The view stays valid until the next Feed()/WritableSpan()
   * call (NextView itself never moves buffered bytes).
   */
  Status NextView(FrameView* view);

  /** True after an oversized or bad-checksum frame; stream is dead. */
  bool failed() const { return error_ != Status::kNeedMore; }

  /**
   * True when buffered bytes form an incomplete frame — at EOF this
   * means the peer truncated mid-frame.
   */
  bool HasPartial() const { return !failed() && consumed_ < size_; }

  uint64_t frames_decoded() const { return frames_decoded_; }
  uint64_t bytes_fed() const { return bytes_fed_; }

  /** Times the decode buffer had to grow (0 in a warmed steady state). */
  uint64_t buffer_reallocs() const { return buffer_reallocs_; }

 private:
  void Compact();

  std::vector<uint8_t> buffer_;  // raw storage; size() == capacity in use
  size_t size_ = 0;              // valid bytes buffered
  size_t consumed_ = 0;  // bytes of buffer_ already returned as frames
  Status error_ = Status::kNeedMore;  // sticky failure, if any
  uint64_t frames_decoded_ = 0;
  uint64_t bytes_fed_ = 0;
  uint64_t buffer_reallocs_ = 0;
};

}  // namespace hyperprof::serve

#endif  // HYPERPROF_SERVE_FRAME_H_
