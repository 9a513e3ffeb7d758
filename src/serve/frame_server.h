#ifndef DBTUNE_SERVE_FRAME_SERVER_H_
#define DBTUNE_SERVE_FRAME_SERVER_H_

#include <string>

#include "serve/batch_scheduler.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "util/status.h"

namespace dbtune::serve {

/// Protocol front-end: decodes request frames, dispatches them to the
/// SessionManager (suggest/observe through the BatchScheduler, so
/// concurrent clients batch across sessions), and encodes response
/// frames. The transport below it is the in-process loopback for now; a
/// socket listener speaks the same `Frame` API.
class FrameServer {
 public:
  /// Both pointers are borrowed, must be non-null and must outlive the
  /// server.
  FrameServer(SessionManager* manager, BatchScheduler* scheduler);

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Drains every complete request frame buffered in `transport`'s
  /// server inbox, executes them — suggests/observes batched across
  /// sessions through the scheduler, create/close as ordering barriers —
  /// and writes one response frame per request, in request order, to
  /// the client. Partial frames stay buffered for the next call; a
  /// malformed stream returns the decode error.
  [[nodiscard]] Status ServeBuffered(LoopbackTransport* transport);

 private:
  /// Handles one create, close or unrecognised frame synchronously and
  /// returns the encoded response frame. A malformed frame yields a
  /// response of the same family with the decode error in its header
  /// when the type is recognisable, and an InvalidArgument
  /// CloseSessionResponse otherwise (the caller should drop the
  /// connection).
  std::string HandleFrame(const Frame& frame);
  std::string HandleCreate(const Frame& frame);
  std::string HandleClose(const Frame& frame);

  SessionManager* const manager_;
  BatchScheduler* const scheduler_;
  FrameReader reader_;
};

}  // namespace dbtune::serve

#endif  // DBTUNE_SERVE_FRAME_SERVER_H_
