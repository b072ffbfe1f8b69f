// Remaining odds and ends: logger plumbing, wire-struct truncation,
// BlkBack's image-management daemon, toolstack backend selection with
// several delegated driver domains, and shard-inventory sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/core/xoar_platform.h"
#include "src/xs/wire.h"

namespace xoar {
namespace {

// --- Logger ---

TEST(LoggerTest, SinkReceivesMessagesAtOrAboveLevel) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  Logger::Get().set_sink([&](LogLevel level, const std::string& message) {
    captured.emplace_back(level, message);
  });
  Logger::Get().set_level(LogLevel::kInfo);
  XLOG(kDebug) << "hidden";
  XLOG(kInfo) << "shown " << 42;
  XLOG(kError) << "also shown";
  Logger::Get().set_sink(nullptr);  // restore default
  Logger::Get().set_level(LogLevel::kWarning);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].second, "shown 42");
  EXPECT_EQ(captured[1].first, LogLevel::kError);
}

// --- Wire structs ---

TEST(XsWireTest, PathAndValueAreTruncatedSafely) {
  XsWireRequest request{};
  const std::string long_path(200, 'p');
  const std::string long_value(200, 'v');
  request.SetPath(long_path);
  request.SetValue(long_value);
  EXPECT_EQ(std::string(request.path).size(), sizeof(request.path) - 1);
  EXPECT_EQ(std::string(request.value).size(), sizeof(request.value) - 1);
  // Always NUL-terminated.
  EXPECT_EQ(request.path[sizeof(request.path) - 1], '\0');
}

TEST(XsWireTest, RingEntrySizesFitThePage) {
  // Compile-time guaranteed by IoRing's static_assert; restated here as an
  // executable fact about the wire format.
  EXPECT_LE(16 + XsRing::kEntries * (sizeof(XsWireRequest) +
                                     sizeof(XsWireResponse)),
            kPageSize);
}

// --- BlkBack image daemon (§5.4) ---

class BlkImageTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(platform_.Boot().ok()); }
  XoarPlatform platform_;
};

TEST_F(BlkImageTest, DuplicateImageNameRejected) {
  ASSERT_TRUE(platform_.blkback().CreateImage("img", 64 * kMiB).ok());
  EXPECT_EQ(platform_.blkback().CreateImage("img", 64 * kMiB).code(),
            StatusCode::kAlreadyExists);
  auto size = platform_.blkback().ImageSize("img");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 64 * kMiB);
}

TEST_F(BlkImageTest, DiskCapacityBoundsImages) {
  // The disk is 320 GB; a 400 GB image cannot fit.
  EXPECT_EQ(platform_.blkback()
                .CreateImage("huge", 400ull * 1000 * 1000 * 1000)
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(platform_.blkback().ImageSize("huge").ok());
}

TEST_F(BlkImageTest, BindRequiresExistingImage) {
  DomainId guest = *platform_.CreateGuest(GuestSpec{.with_disk = false});
  EXPECT_EQ(platform_.blkback().BindImage(guest, "missing").code(),
            StatusCode::kNotFound);
}

TEST_F(BlkImageTest, OneVbdPerGuestPerBackend) {
  DomainId guest = *platform_.CreateGuest(GuestSpec{});
  ASSERT_TRUE(platform_.blkback().CreateImage("second", 64 * kMiB).ok());
  EXPECT_EQ(platform_.blkback().BindImage(guest, "second").code(),
            StatusCode::kAlreadyExists);
}

// --- BlkBack first-fit allocator against the extent walk it replaced ---

constexpr std::uint64_t kImageBase = 64 * kMiB;  // metadata reserve

// The first-fit walk BlkBack ran before its free-gap index, kept as the
// reference: each create walks every live extent in offset order from the
// metadata reserve and takes the first gap that fits.
class ExtentWalk {
 public:
  explicit ExtentWalk(std::uint64_t capacity) : capacity_(capacity) {}

  std::optional<std::uint64_t> Create(std::uint64_t bytes) {
    std::optional<std::uint64_t> offset = FirstFit(bytes);
    if (offset.has_value()) {
      extents_.emplace(*offset, bytes);
    }
    return offset;
  }
  void Delete(std::uint64_t offset, std::uint64_t bytes) {
    extents_.erase(extents_.find({offset, bytes}));
  }
  // Sizes of the non-empty gaps, the trailing one included.
  std::vector<std::uint64_t> GapSizes() const {
    std::vector<std::uint64_t> sizes;
    std::uint64_t cursor = kImageBase;
    for (const auto& [offset, size] : extents_) {
      if (offset > cursor) {
        sizes.push_back(offset - cursor);
      }
      cursor = offset + size;
    }
    if (capacity_ > cursor) {
      sizes.push_back(capacity_ - cursor);
    }
    return sizes;
  }

 private:
  std::optional<std::uint64_t> FirstFit(std::uint64_t bytes) const {
    std::uint64_t cursor = kImageBase;
    for (const auto& [offset, size] : extents_) {
      if (offset - cursor >= bytes) {
        return cursor;
      }
      cursor = offset + size;
    }
    if (cursor + bytes <= capacity_) {
      return cursor;
    }
    return std::nullopt;
  }

  std::uint64_t capacity_;
  std::multiset<std::pair<std::uint64_t, std::uint64_t>> extents_;
};

// A BlkBack on its own disk: the image daemon touches neither the
// hypervisor nor XenStore.
class BlkAllocatorTest : public ::testing::Test {
 protected:
  void MakeBackend(std::uint64_t capacity) {
    DiskGeometry geometry;
    geometry.capacity_bytes = capacity;
    disk_ = std::make_unique<DiskDevice>(&sim_, PciSlot{0, 3, 0}, geometry);
    back_ = std::make_unique<BlkBack>(nullptr, nullptr, &sim_, DomainId(1),
                                      disk_.get(), &obs_);
  }
  std::uint64_t OffsetOf(const std::string& image) {
    StatusOr<std::uint64_t> offset = back_->ImageOffset(image);
    EXPECT_TRUE(offset.ok()) << image;
    return offset.ok() ? *offset : 0;
  }

  Simulator sim_;
  Obs obs_;
  std::unique_ptr<DiskDevice> disk_;
  std::unique_ptr<BlkBack> back_;
};

TEST_F(BlkAllocatorTest, DeletesMergeWithBothNeighbours) {
  MakeBackend(kImageBase + 10 * kMiB);
  ASSERT_TRUE(back_->CreateImage("a", 2 * kMiB).ok());
  ASSERT_TRUE(back_->CreateImage("b", 3 * kMiB).ok());
  ASSERT_TRUE(back_->CreateImage("c", 4 * kMiB).ok());
  EXPECT_EQ(OffsetOf("c"), kImageBase + 5 * kMiB);
  ASSERT_TRUE(back_->DeleteImage("a").ok());
  ASSERT_TRUE(back_->DeleteImage("c").ok());
  // 2 MiB in front of b and 5 MiB behind it: 4 MiB only fits behind.
  ASSERT_TRUE(back_->CreateImage("d", 4 * kMiB).ok());
  EXPECT_EQ(OffsetOf("d"), kImageBase + 5 * kMiB);
  ASSERT_TRUE(back_->DeleteImage("d").ok());
  // Freeing b joins the gap in front, b's extent and the gap behind.
  ASSERT_TRUE(back_->DeleteImage("b").ok());
  ASSERT_TRUE(back_->CreateImage("all", 10 * kMiB).ok());
  EXPECT_EQ(OffsetOf("all"), kImageBase);
  // Full to the byte; a zero-byte image still lands at the base.
  EXPECT_EQ(back_->CreateImage("more", 1).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(back_->CreateImage("empty", 0).ok());
  EXPECT_EQ(OffsetOf("empty"), kImageBase);
}

TEST_F(BlkAllocatorTest, SizesNearTheTopOfTheRangeDoNotWrap) {
  MakeBackend(kImageBase + 10 * kMiB);
  ASSERT_TRUE(back_->CreateImage("a", kMiB).ok());
  // offset + size would wrap past zero and compare as if it fit.
  for (const std::uint64_t bytes :
       {UINT64_MAX, UINT64_MAX - kImageBase, UINT64_MAX - 2 * kMiB}) {
    EXPECT_EQ(back_->CreateImage("wrap", bytes).code(),
              StatusCode::kResourceExhausted)
        << bytes;
  }
  ASSERT_TRUE(back_->CreateImage("b", 9 * kMiB).ok());
  EXPECT_EQ(OffsetOf("b"), kImageBase + kMiB);
}

TEST_F(BlkAllocatorTest, DiskSmallerThanTheReserveHoldsNothing) {
  MakeBackend(kImageBase - 1);
  EXPECT_EQ(back_->CreateImage("empty", 0).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(back_->CreateImage("one", 1).code(),
            StatusCode::kResourceExhausted);
}

// Seeded create/delete churn with mixed sizes, zero-byte images, exact
// fits and disk-full, at three live-image populations: every offset (and
// every disk-full) must match the reference walk.
TEST_F(BlkAllocatorTest, SeededChurnMatchesTheExtentWalk) {
  constexpr std::uint64_t kMaxImage = 4 * kMiB;
  for (const std::uint64_t live_target : {1u, 16u, 1024u}) {
    SCOPED_TRACE(live_target);
    // Room for ~0.9 of the target at the mean image size, so the disk
    // fills and churn runs through a fragmented free list.
    const std::uint64_t capacity =
        kImageBase + live_target * (kMaxImage / 2) * 9 / 10;
    MakeBackend(capacity);
    ExtentWalk reference(capacity);
    Rng rng(live_target);
    std::vector<std::pair<std::string, std::pair<std::uint64_t,
                                                 std::uint64_t>>> live;
    int zero_byte = 0;
    int exact_fits = 0;
    int disk_full = 0;
    int deletes = 0;
    std::size_t max_live = 0;
    const int ops = 2000 + 8 * static_cast<int>(live_target);
    for (int op = 0; op < ops; ++op) {
      const bool create = live.empty() ||
                          (live.size() < live_target && rng.NextBool(0.6)) ||
                          rng.NextBool(0.3);
      if (!create) {
        const std::size_t index = rng.NextBelow(live.size());
        const auto [offset, bytes] = live[index].second;
        ASSERT_TRUE(back_->DeleteImage(live[index].first).ok());
        reference.Delete(offset, bytes);
        live[index] = live.back();
        live.pop_back();
        ++deletes;
        continue;
      }
      std::uint64_t bytes = rng.NextInRange(1, kMaxImage);
      const double kind = rng.NextDouble();
      if (kind < 0.1) {
        bytes = 0;
        ++zero_byte;
      } else if (kind < 0.25) {
        const std::vector<std::uint64_t> gaps = reference.GapSizes();
        if (!gaps.empty()) {
          bytes = gaps[rng.NextBelow(gaps.size())];
          ++exact_fits;
        }
      } else if (kind < 0.27) {
        bytes = capacity;  // never fits past the reserve
      }
      const std::string name = StrFormat("img-%d", op);
      const std::optional<std::uint64_t> expected = reference.Create(bytes);
      const Status status = back_->CreateImage(name, bytes);
      ASSERT_EQ(status.ok(), expected.has_value())
          << "op " << op << " bytes " << bytes << ": " << status;
      if (!expected.has_value()) {
        EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
        ++disk_full;
        continue;
      }
      ASSERT_EQ(OffsetOf(name), *expected) << "op " << op << " bytes "
                                           << bytes;
      live.push_back({name, {*expected, bytes}});
      max_live = std::max(max_live, live.size());
    }
    EXPECT_GT(zero_byte, 0);
    EXPECT_GT(exact_fits, 0);
    EXPECT_GT(disk_full, 0);
    EXPECT_GT(deletes, 0);
    EXPECT_GE(max_live, live_target);
  }
}

// --- Toolstack backend selection across several driver domains ---

TEST(ToolstackSelectionTest, FillsBackendsInDelegationOrder) {
  XoarPlatform::Config config;
  config.num_nics = 2;
  config.num_disk_controllers = 2;
  XoarPlatform platform(config);
  ASSERT_TRUE(platform.Boot().ok());
  // Unconstrained guests all land on the first compatible backend.
  DomainId g1 = *platform.CreateGuest(GuestSpec{.name = "g1", .memory_mb = 256});
  DomainId g2 = *platform.CreateGuest(GuestSpec{.name = "g2", .memory_mb = 256});
  EXPECT_EQ(platform.netback_of(g1), platform.netback_of(g2));
  // A tagged guest is pushed to the second (empty) backend.
  DomainId g3 = *platform.CreateGuest(
      GuestSpec{.name = "g3", .memory_mb = 256, .constraint_tag = "t"});
  EXPECT_NE(platform.netback_of(g3), platform.netback_of(g1));
}

// --- Shard inventory sanity (Table 5.1 cross-checks) ---

TEST(ShardInventoryTest, MatchesTable51) {
  const auto& inventory = ShardInventory();
  EXPECT_EQ(inventory.size(),
            static_cast<std::size_t>(ShardClass::kCount));
  // Privileged: Bootstrapper, Builder, PCIBack — and nothing else.
  for (const auto& shard : inventory) {
    const bool should_be_privileged =
        shard.shard_class == ShardClass::kBootstrapper ||
        shard.shard_class == ShardClass::kBuilder ||
        shard.shard_class == ShardClass::kPciBack;
    EXPECT_EQ(shard.privileged, should_be_privileged) << shard.name;
  }
  // Restartable "(R)": XenStore-Logic, Builder, NetBack, BlkBack, Toolstack.
  int restartable = 0;
  for (const auto& shard : inventory) {
    restartable += shard.restartable ? 1 : 0;
  }
  EXPECT_EQ(restartable, 5);
  // nanOS hosts exactly the two build-critical components (§5.7).
  for (const auto& shard : inventory) {
    if (shard.os == OsProfile::kNanOs) {
      EXPECT_TRUE(shard.shard_class == ShardClass::kBootstrapper ||
                  shard.shard_class == ShardClass::kBuilder);
    }
  }
}

TEST(ShardInventoryTest, LifetimesMatchTable51) {
  EXPECT_EQ(DescriptorFor(ShardClass::kBootstrapper).lifetime,
            ShardLifetime::kBootUp);
  EXPECT_EQ(DescriptorFor(ShardClass::kPciBack).lifetime,
            ShardLifetime::kBootUp);
  EXPECT_EQ(DescriptorFor(ShardClass::kQemuVm).lifetime,
            ShardLifetime::kGuestVm);
  EXPECT_EQ(DescriptorFor(ShardClass::kNetBack).lifetime,
            ShardLifetime::kForever);
}

// --- Hypercall metadata ---

TEST(HypercallMetaTest, NamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kHypercallCount; ++i) {
    const auto name = HypercallName(static_cast<Hypercall>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

TEST(HypercallMetaTest, PrivilegedAndUnprivilegedPartition) {
  int unprivileged = 0;
  for (std::size_t i = 0; i < kHypercallCount; ++i) {
    unprivileged +=
        IsUnprivilegedHypercall(static_cast<Hypercall>(i)) ? 1 : 0;
  }
  // 6 base guest hypercalls + virq_bind (capability-gated instead).
  EXPECT_EQ(unprivileged, 7);
}

}  // namespace
}  // namespace xoar
