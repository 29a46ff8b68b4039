#include "ghs/mem/transfer.hpp"

#include <utility>

#include "ghs/util/error.hpp"

namespace ghs::mem {

void TransferEngine::copy(Bytes bytes, RegionId from, RegionId to,
                          std::function<void()> on_complete) {
  start(bytes, topology_.copy_path(from, to), std::move(on_complete), "copy");
}

void TransferEngine::migrate(Bytes bytes, RegionId from, RegionId to,
                             std::function<void()> on_complete) {
  start(bytes, topology_.migration_path(from, to), std::move(on_complete),
        "migrate");
}

void TransferEngine::start(Bytes bytes, const sim::FlowPath& path,
                           std::function<void()> on_complete,
                           std::string_view label) {
  GHS_REQUIRE(bytes >= 0, "bytes=" << bytes);
  if (bytes == 0) {
    if (on_complete) on_complete();
    return;
  }
  ++stats_.copies;
  stats_.bytes += bytes;
  sim::FlowSpec spec;
  spec.bytes = static_cast<double>(bytes);
  spec.resources = path;
  if (on_complete) spec.on_complete = std::move(on_complete);
  spec.label = label;
  topology_.network().start_flow(std::move(spec));
}

}  // namespace ghs::mem
