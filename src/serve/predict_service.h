// Line-delimited JSON wire protocol over the prediction daemon — the
// serving-side sibling of src/server/service.h, same framing rules: one
// request per line, one compact-JSON response per line, every response
// carries "ok": true|false, failures add "error" and never tear down the
// stream. Integer fields go through the strict decoders in common/wire.h.
//
// Requests:
//
//   {"op":"ping"}                       -> {"ok":true,"pong":true,"loaded":B}
//   {"op":"load","artifact":PATH}       -> {"ok":true,"model":{...}}
//   {"op":"swap","artifact":PATH}       -> {"ok":true,"model":{...}}
//       swap requires a model to already be serving; in-flight batches
//       finish on the old model, every reply reports its generation.
//   {"op":"reload"}                     -> {"ok":true,"swapped":B[,"model":..]}
//       re-reads the last loaded artifact path; swaps only when the payload
//       fingerprint changed (artifact-path watch without a watcher thread).
//   {"op":"predict","rows":[[..],..]}   -> see below
//   {"op":"predict","csv":PATH}        — every CSV column is a feature (the
//       file is read with CsvOptions::has_label = false, so no column is
//       silently claimed as a label; prediction inputs are unlabeled)
//   {"op":"stats"}                      -> {"ok":true,"stats":{...}}
//   {"op":"drain"}                      -> {"ok":true,"drained":true}
//   {"op":"shutdown"}                   -> {"ok":true,"bye":true}
//
// predict responses:
//   regression:      {"ok":true,"task":"regression","generation":G,
//                     "batch_rows":N,"values":[v,...]}
//   classification:  {"ok":true,"task":...,"n_classes":K,"generation":G,
//                     "batch_rows":N,"values":[[p0..pK-1],...],
//                     "classes":[argmax,...]}
// Row cells are JSON numbers; null encodes a missing value (NaN). Values
// round-trip: the JSON writer emits 17 significant digits.
//
// handle()/handle_line() are safe to call from multiple threads — that is
// the point: the CLI serves each AF_UNIX connection on its own thread, so
// one batch spans concurrent clients. A request is served as soon as the
// batcher is idle; requests arriving while a batch is in flight form the
// next batch.
#pragma once

#include <atomic>
#include <iosfwd>
#include <string>

#include "serve/predict_daemon.h"

namespace flaml::serve {

class PredictService {
 public:
  explicit PredictService(PredictDaemon& daemon);

  // Handle one decoded request; never throws (errors become
  // {"ok":false,"error":...} responses). Thread-safe.
  JsonValue handle(const JsonValue& request);

  // Handle one raw request line (parse errors become error responses too).
  std::string handle_line(const std::string& line);

  // Serve `in` until EOF or a shutdown op (stdio mode).
  void serve_stream(std::istream& in, std::ostream& out);

  bool shutdown_requested() const { return shutdown_requested_.load(); }

 private:
  JsonValue dispatch(const JsonValue& request);
  JsonValue op_predict(const JsonValue& request);

  PredictDaemon* daemon_;
  std::atomic<bool> shutdown_requested_{false};
};

}  // namespace flaml::serve
