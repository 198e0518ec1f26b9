#include "stream/edge_stream.h"

#include <algorithm>

namespace densest {

size_t EdgeStream::NextBatch(Edge* buf, size_t cap) {
  const std::span<const Edge> view = NextView(buf, cap);
  if (view.data() != buf) std::copy(view.begin(), view.end(), buf);
  return view.size();
}

}  // namespace densest
