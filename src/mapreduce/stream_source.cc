#include "mapreduce/stream_source.h"

namespace densest {

size_t StreamRecordSource::FillChunk(KV<NodeId, NodeId>* buf, size_t cap) {
  scratch_.resize(cap);
  // One view per call: the engine consumes the chunk before asking for the
  // next, so reusing one scratch region is within NextView's aliasing rules.
  std::span<const Edge> view = stream_->NextView(scratch_.data(), cap);
  for (size_t i = 0; i < view.size(); ++i) {
    buf[i] = KV<NodeId, NodeId>{view[i].u, view[i].v};
  }
  bytes_scanned_ += view.size() * kDfsRecordBytes;
  return view.size();
}

}  // namespace densest
