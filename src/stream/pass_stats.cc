#include "stream/pass_stats.h"

#include <sstream>

namespace densest {

std::string PassStats::ToString() const {
  std::ostringstream os;
  os << "passes=" << passes << " edges_scanned=" << edges_scanned;
  if (io_retries > 0 || io_retries_healed > 0) {
    os << " io_retries=" << io_retries
       << " io_retries_healed=" << io_retries_healed;
  }
  return os.str();
}

}  // namespace densest
