#include "ghs/um/manager.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "ghs/util/error.hpp"
#include "ghs/util/log.hpp"
#include "ghs/util/math.hpp"

namespace ghs::um {

const char* accessor_name(Accessor accessor) {
  return accessor == Accessor::kGpu ? "GPU" : "CPU";
}

const char* migration_mode_name(MigrationMode mode) {
  switch (mode) {
    case MigrationMode::kNone:
      return "none";
    case MigrationMode::kFaultEager:
      return "fault-eager";
    case MigrationMode::kAccessCounter:
      return "access-counter";
  }
  return "?";
}

UmManager::UmManager(mem::Topology& topology, mem::TransferEngine& transfers,
                     UmPolicy policy)
    : topology_(topology), transfers_(transfers), policy_(policy) {
  GHS_REQUIRE(policy_.page_size > 0, "page_size=" << policy_.page_size);
  GHS_REQUIRE(policy_.fault_migration_bw.bytes_per_second > 0.0,
              "fault migration bandwidth must be positive");
  GHS_REQUIRE(policy_.gpu_access_threshold > 0, "gpu_access_threshold");
  GHS_REQUIRE(policy_.cpu_access_threshold >= 0, "cpu_access_threshold");
}

AllocId UmManager::allocate(Bytes size, mem::RegionId first_touch,
                            std::string label) {
  GHS_REQUIRE(size > 0, "allocation '" << label << "' has size " << size);
  Allocation a;
  a.size = size;
  a.label = std::move(label);
  a.live = true;
  const auto n_pages =
      static_cast<std::size_t>(ceil_div(size, policy_.page_size));
  a.pages.assign(n_pages, Page{first_touch, 0, 0, false});
  allocations_.push_back(std::move(a));
  if (telemetry::Gauge* g = residency_gauge(first_touch)) {
    g->add(static_cast<double>(size));
  }
  return static_cast<AllocId>(allocations_.size() - 1);
}

void UmManager::free(AllocId id) {
  Allocation& a = alloc(id);
  if (m_resident_hbm_ != nullptr) {
    for (std::size_t p = 0; p < a.pages.size(); ++p) {
      const Bytes page_bytes =
          std::min(static_cast<Bytes>(p + 1) * policy_.page_size, a.size) -
          static_cast<Bytes>(p) * policy_.page_size;
      residency_gauge(a.pages[p].residency)
          ->add(-static_cast<double>(page_bytes));
    }
  }
  a.live = false;
  a.pages.clear();
}

void UmManager::set_telemetry(telemetry::Sink sink) {
  flight_ = sink.flight;
  if (sink.metrics == nullptr) {
    m_fault_migrations_ = nullptr;
    m_background_migrations_ = nullptr;
    m_migrated_hbm_ = nullptr;
    m_migrated_lpddr_ = nullptr;
    m_remote_gpu_ = nullptr;
    m_remote_cpu_ = nullptr;
    m_duplicated_ = nullptr;
    m_resident_hbm_ = nullptr;
    m_resident_lpddr_ = nullptr;
    return;
  }
  telemetry::Registry& r = *sink.metrics;
  m_fault_migrations_ =
      &r.counter("ghs_um_fault_migrations_total", {},
                 "Fault-eager segments that flipped residency on access");
  m_background_migrations_ =
      &r.counter("ghs_um_background_migrations_total", {},
                 "Background migrations started by the access counters");
  m_migrated_hbm_ =
      &r.counter("ghs_um_migrated_bytes_total", {{"dest", "hbm"}},
                 "Bytes whose pages migrated, by destination tier");
  m_migrated_lpddr_ =
      &r.counter("ghs_um_migrated_bytes_total", {{"dest", "lpddr"}},
                 "Bytes whose pages migrated, by destination tier");
  m_remote_gpu_ =
      &r.counter("ghs_um_remote_bytes_total", {{"accessor", "gpu"}},
                 "Bytes served over NVLink-C2C instead of local memory");
  m_remote_cpu_ =
      &r.counter("ghs_um_remote_bytes_total", {{"accessor", "cpu"}},
                 "Bytes served over NVLink-C2C instead of local memory");
  m_duplicated_ = &r.counter("ghs_um_duplicated_bytes_total", {},
                             "Read-mostly replica bytes established");
  m_resident_hbm_ = &r.gauge("ghs_um_resident_bytes", {{"tier", "hbm"}},
                             "Managed bytes currently resident, by tier");
  m_resident_lpddr_ = &r.gauge("ghs_um_resident_bytes", {{"tier", "lpddr"}},
                               "Managed bytes currently resident, by tier");
}

telemetry::Gauge* UmManager::residency_gauge(mem::RegionId region) const {
  return region == mem::RegionId::kHbm ? m_resident_hbm_ : m_resident_lpddr_;
}

void UmManager::shift_residency(mem::RegionId from, mem::RegionId to,
                                Bytes bytes) {
  if (m_resident_hbm_ == nullptr || from == to || bytes == 0) return;
  residency_gauge(from)->add(-static_cast<double>(bytes));
  residency_gauge(to)->add(static_cast<double>(bytes));
}

Bytes UmManager::size(AllocId id) const { return alloc(id).size; }

UmManager::Allocation& UmManager::alloc(AllocId id) {
  GHS_REQUIRE(id < allocations_.size(), "allocation id " << id);
  Allocation& a = allocations_[id];
  GHS_REQUIRE(a.live, "allocation " << id << " ('" << a.label
                                    << "') was freed");
  return a;
}

const UmManager::Allocation& UmManager::alloc(AllocId id) const {
  GHS_REQUIRE(id < allocations_.size(), "allocation id " << id);
  const Allocation& a = allocations_[id];
  GHS_REQUIRE(a.live, "allocation " << id << " ('" << a.label
                                    << "') was freed");
  return a;
}

std::pair<std::size_t, std::size_t> UmManager::page_span(const Allocation& a,
                                                         Bytes offset,
                                                         Bytes length) const {
  GHS_REQUIRE(offset >= 0 && length >= 0 && offset + length <= a.size,
              "range [" << offset << ", " << offset + length
                        << ") outside allocation of size " << a.size);
  const auto first = static_cast<std::size_t>(offset / policy_.page_size);
  const auto last = static_cast<std::size_t>(
      ceil_div(offset + length, policy_.page_size));
  return {first, last};
}

Bytes UmManager::resident_bytes(AllocId id, mem::RegionId region) const {
  return resident_bytes(id, region, 0, size(id));
}

Bytes UmManager::resident_bytes(AllocId id, mem::RegionId region, Bytes offset,
                                Bytes length) const {
  const Allocation& a = alloc(id);
  const auto [first, last] = page_span(a, offset, length);
  Bytes total = 0;
  for (std::size_t p = first; p < last; ++p) {
    if (a.pages[p].residency != region) continue;
    const Bytes page_begin = static_cast<Bytes>(p) * policy_.page_size;
    const Bytes begin = std::max(offset, page_begin);
    const Bytes end =
        std::min(offset + length, std::min(page_begin + policy_.page_size,
                                           a.size));
    total += end - begin;
  }
  return total;
}

std::vector<SegmentPlan> UmManager::plan_pass(AllocId id, Accessor accessor,
                                              Bytes offset, Bytes length) {
  Allocation& a = alloc(id);
  if (length == 0) return {};
  const auto [first, last] = page_span(a, offset, length);
  const mem::RegionId local = accessor == Accessor::kGpu
                                  ? mem::RegionId::kHbm
                                  : mem::RegionId::kLpddr;

  // Per-page serving decision, then coalesce identical neighbours.
  struct Decision {
    mem::RegionId source;
    bool migrate_on_access;
    bool duplicate_on_access;
  };
  std::vector<SegmentPlan> plan;
  std::vector<std::pair<std::size_t, std::size_t>> background_runs;
  std::size_t bg_run_start = last;  // sentinel: no open run

  const auto close_bg_run = [&](std::size_t end) {
    if (bg_run_start < end) background_runs.emplace_back(bg_run_start, end);
    bg_run_start = last;
  };

  for (std::size_t p = first; p < last; ++p) {
    Page& page = a.pages[p];
    Decision d{page.residency, false, false};
    bool wants_background = false;

    if (a.read_mostly) {
      // Read-duplication: a replica (or the home copy) serves locally;
      // otherwise this pass establishes the replica.
      if (page.residency == local || page.duplicated) {
        d.source = local;
      } else {
        auto& passes =
            accessor == Accessor::kGpu ? page.gpu_passes : page.cpu_passes;
        ++passes;
        if (!page.migrating) {
          d.duplicate_on_access = true;
          page.migrating = true;
        }
      }
    } else if (page.residency != local) {
      auto& passes =
          accessor == Accessor::kGpu ? page.gpu_passes : page.cpu_passes;
      ++passes;
      if (accessor == Accessor::kGpu) {
        switch (policy_.mode) {
          case MigrationMode::kNone:
            break;
          case MigrationMode::kFaultEager:
            if (!page.migrating) {
              d.migrate_on_access = true;
              page.migrating = true;
            }
            break;
          case MigrationMode::kAccessCounter:
            if (!page.migrating &&
                passes >= static_cast<std::uint32_t>(
                              policy_.gpu_access_threshold)) {
              wants_background = true;
              page.migrating = true;
            }
            break;
        }
      } else if (policy_.cpu_access_threshold > 0 && !page.migrating &&
                 passes >= static_cast<std::uint32_t>(
                               policy_.cpu_access_threshold)) {
        wants_background = true;
        page.migrating = true;
      }
    }

    if (wants_background) {
      if (bg_run_start == last) bg_run_start = p;
    } else {
      close_bg_run(p);
    }

    const Bytes page_begin = static_cast<Bytes>(p) * policy_.page_size;
    const Bytes begin = std::max(offset, page_begin);
    const Bytes end = std::min(offset + length,
                               std::min(page_begin + policy_.page_size,
                                        a.size));
    const Bytes seg_len = end - begin;
    GHS_CHECK(seg_len > 0, "empty page slice");

    if (d.source != local) {
      auto& remote = accessor == Accessor::kGpu ? stats_.remote_bytes_gpu
                                                : stats_.remote_bytes_cpu;
      remote += seg_len;
      telemetry::Counter* counter =
          accessor == Accessor::kGpu ? m_remote_gpu_ : m_remote_cpu_;
      if (counter != nullptr) counter->inc(seg_len);
    }

    if (!plan.empty() && plan.back().source == d.source &&
        plan.back().migrate_on_access == d.migrate_on_access &&
        plan.back().duplicate_on_access == d.duplicate_on_access &&
        plan.back().offset + plan.back().length == begin) {
      plan.back().length += seg_len;
    } else {
      SegmentPlan seg;
      seg.offset = begin;
      seg.length = seg_len;
      seg.source = d.source;
      seg.migrate_on_access = d.migrate_on_access;
      seg.duplicate_on_access = d.duplicate_on_access;
      if (d.migrate_on_access) {
        seg.rate_cap = policy_.fault_migration_bw.bytes_per_second;
      } else if (d.duplicate_on_access) {
        seg.rate_cap = policy_.duplication_bw.bytes_per_second;
      }
      plan.push_back(seg);
    }
  }
  close_bg_run(last);

  for (const auto& [run_first, run_last] : background_runs) {
    start_background_migration(id, run_first, run_last, local);
  }
  if (accessor == Accessor::kGpu) {
    for (const auto& seg : plan) {
      if (seg.migrate_on_access) {
        ++stats_.fault_migrations;
        if (m_fault_migrations_ != nullptr) m_fault_migrations_->inc();
        if (flight_ != nullptr) {
          flight_->record(topology_.sim().now(), "um", "fault_migration",
                          a.label + "[" + std::to_string(seg.offset) + "," +
                              std::to_string(seg.offset + seg.length) + ")");
        }
      }
    }
  }
  return plan;
}

void UmManager::start_background_migration(AllocId id, std::size_t first_page,
                                           std::size_t last_page,
                                           mem::RegionId destination) {
  Allocation& a = alloc(id);
  const Bytes begin = static_cast<Bytes>(first_page) * policy_.page_size;
  const Bytes end =
      std::min(static_cast<Bytes>(last_page) * policy_.page_size, a.size);
  const Bytes bytes = end - begin;
  GHS_CHECK(bytes > 0, "empty background migration");
  const mem::RegionId from = a.pages[first_page].residency;
  ++stats_.counter_migrations;
  if (m_background_migrations_ != nullptr) m_background_migrations_->inc();
  std::ostringstream label;
  label << "um-migrate:" << a.label << "[" << begin << "," << end << ")->"
        << mem::region_name(destination);
  const SimTime started = topology_.sim().now();
  if (flight_ != nullptr) {
    flight_->record(started, "um", "migration_start", label.str());
  }
  transfers_.migrate(
      bytes, from, destination,
      [this, id, begin, bytes, destination, started,
       name = label.str()] {
        trace::record_span(tracer_, trace::Track::kUmMigration, name,
                           started, topology_.sim().now(),
                           format_bytes(bytes));
        complete_segment(id, begin, bytes, destination);
      });
}

void UmManager::advise_read_mostly(AllocId id) {
  alloc(id).read_mostly = true;
}

bool UmManager::read_mostly(AllocId id) const {
  return alloc(id).read_mostly;
}

Bytes UmManager::duplicated_bytes(AllocId id) const {
  const Allocation& a = alloc(id);
  Bytes total = 0;
  for (std::size_t p = 0; p < a.pages.size(); ++p) {
    if (!a.pages[p].duplicated) continue;
    total += std::min(static_cast<Bytes>(p + 1) * policy_.page_size,
                      a.size) -
             static_cast<Bytes>(p) * policy_.page_size;
  }
  return total;
}

void UmManager::complete_duplication(AllocId id, Bytes offset, Bytes length) {
  GHS_REQUIRE(id < allocations_.size(), "allocation id " << id);
  Allocation& a = allocations_[id];
  if (!a.live) return;
  const auto [first, last] = page_span(a, offset, length);
  Bytes fresh = 0;
  for (std::size_t p = first; p < last; ++p) {
    Page& page = a.pages[p];
    if (!page.duplicated) {
      const Bytes page_bytes =
          std::min(static_cast<Bytes>(p + 1) * policy_.page_size, a.size) -
          static_cast<Bytes>(p) * policy_.page_size;
      stats_.bytes_duplicated += page_bytes;
      fresh += page_bytes;
    }
    page.duplicated = true;
    page.migrating = false;
  }
  if (fresh > 0 && m_duplicated_ != nullptr) m_duplicated_->inc(fresh);
}

Bytes UmManager::prefetch(AllocId id, Bytes offset, Bytes length,
                          mem::RegionId destination,
                          std::function<void()> on_complete) {
  Allocation& a = alloc(id);
  const auto [first, last] = page_span(a, offset, length);
  // Collect runs of pages that need to move and are not already in flight.
  struct Run {
    std::size_t first;
    std::size_t last;
    mem::RegionId from;
  };
  std::vector<Run> runs;
  for (std::size_t p = first; p < last; ++p) {
    Page& page = a.pages[p];
    if (page.residency == destination || page.migrating) continue;
    page.migrating = true;
    if (!runs.empty() && runs.back().last == p &&
        runs.back().from == page.residency) {
      runs.back().last = p + 1;
    } else {
      runs.push_back(Run{p, p + 1, page.residency});
    }
  }
  if (runs.empty()) {
    if (on_complete) on_complete();
    return 0;
  }
  Bytes total = 0;
  auto pending = std::make_shared<std::size_t>(runs.size());
  auto done = std::make_shared<std::function<void()>>(std::move(on_complete));
  const SimTime started = topology_.sim().now();
  for (const auto& run : runs) {
    const Bytes begin = static_cast<Bytes>(run.first) * policy_.page_size;
    const Bytes end =
        std::min(static_cast<Bytes>(run.last) * policy_.page_size, a.size);
    const Bytes bytes = end - begin;
    total += bytes;
    std::ostringstream label;
    label << "um-prefetch:" << a.label << "[" << begin << "," << end << ")->"
          << mem::region_name(destination);
    transfers_.migrate(
        bytes, run.from, destination,
        [this, id, begin, bytes, destination, pending, done, started,
         name = label.str()] {
          trace::record_span(tracer_, trace::Track::kUmMigration, name,
                             started, topology_.sim().now(),
                             format_bytes(bytes));
          complete_segment(id, begin, bytes, destination);
          GHS_CHECK(*pending > 0, "prefetch completion underflow");
          if (--*pending == 0 && *done) (*done)();
        });
  }
  return total;
}

void UmManager::complete_segment(AllocId id, Bytes offset, Bytes length,
                                 mem::RegionId new_residency) {
  GHS_REQUIRE(id < allocations_.size(), "allocation id " << id);
  Allocation& a = allocations_[id];
  if (!a.live) return;  // allocation freed while a migration was in flight
  const auto [first, last] = page_span(a, offset, length);
  Bytes moved = 0;
  for (std::size_t p = first; p < last; ++p) {
    Page& page = a.pages[p];
    if (page.residency != new_residency) {
      const Bytes page_bytes =
          std::min(static_cast<Bytes>(p + 1) * policy_.page_size, a.size) -
          static_cast<Bytes>(p) * policy_.page_size;
      if (new_residency == mem::RegionId::kHbm) {
        stats_.bytes_migrated_to_hbm += page_bytes;
      } else {
        stats_.bytes_migrated_to_lpddr += page_bytes;
      }
      moved += page_bytes;
    }
    page.residency = new_residency;
    page.migrating = false;
    page.duplicated = false;  // moving a page collapses its replica
    page.gpu_passes = 0;
    page.cpu_passes = 0;
  }
  if (moved > 0) {
    // Two tiers: everything that moved came from the other one.
    const mem::RegionId source = new_residency == mem::RegionId::kHbm
                                     ? mem::RegionId::kLpddr
                                     : mem::RegionId::kHbm;
    telemetry::Counter* counter = new_residency == mem::RegionId::kHbm
                                      ? m_migrated_hbm_
                                      : m_migrated_lpddr_;
    if (counter != nullptr) counter->inc(moved);
    shift_residency(source, new_residency, moved);
    if (flight_ != nullptr) {
      flight_->record(topology_.sim().now(), "um", "page_migration",
                      a.label + ": " + format_bytes(moved) + " -> " +
                          mem::region_name(new_residency));
    }
  }
}

}  // namespace ghs::um
