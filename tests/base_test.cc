#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/base/domid_table.h"
#include "src/base/hash_chain.h"
#include "src/base/ids.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/strings.h"
#include "src/base/units.h"

namespace xoar {
namespace {

// --- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesSetCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(PermissionDeniedError("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(AbortedError("x").code(), StatusCode::kAborted);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("msg").message(), "msg");
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(PermissionDeniedError("nope").ToString(),
            "PERMISSION_DENIED: nope");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = NotFoundError("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Doubler(StatusOr<int> input) {
  XOAR_ASSIGN_OR_RETURN(int value, std::move(input));
  return value * 2;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(InternalError("boom")).status().code(),
            StatusCode::kInternal);
}

Status FailFast() {
  XOAR_RETURN_IF_ERROR(InvalidArgumentError("bad"));
  return InternalError("unreachable");
}

TEST(StatusTest, ReturnIfErrorShortCircuits) {
  EXPECT_EQ(FailFast().code(), StatusCode::kInvalidArgument);
}

// --- TypedId ---

TEST(IdsTest, InvalidByDefault) {
  DomainId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(DomainId(7).valid());
}

TEST(IdsTest, DistinctTypesCompareWithinType) {
  EXPECT_EQ(DomainId(3), DomainId(3));
  EXPECT_NE(DomainId(3), DomainId(4));
  EXPECT_LT(DomainId(3), DomainId(4));
}

TEST(IdsTest, HashWorksInContainers) {
  std::unordered_map<DomainId, int> map;
  map[DomainId(1)] = 10;
  map[DomainId(2)] = 20;
  EXPECT_EQ(map[DomainId(1)], 10);
}

TEST(IdsTest, Dom0ConstantIsZero) { EXPECT_EQ(kDom0.value(), 0u); }

// --- Strings ---

TEST(StringsTest, SplitPathDropsEmptySegments) {
  EXPECT_EQ(SplitPath("/a//b/"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitPath("").empty());
  EXPECT_TRUE(SplitPath("///").empty());
}

TEST(StringsTest, JoinPathRoundTrips) {
  EXPECT_EQ(JoinPath({"a", "b", "c"}), "/a/b/c");
  EXPECT_EQ(JoinPath({}), "/");
  EXPECT_EQ(JoinPath(SplitPath("/local/domain/3")), "/local/domain/3");
}

TEST(StringsTest, PathHasPrefixRespectsBoundaries) {
  EXPECT_TRUE(PathHasPrefix("/a/b", "/a"));
  EXPECT_TRUE(PathHasPrefix("/a/b", "/a/b"));
  EXPECT_FALSE(PathHasPrefix("/ab", "/a"));
  EXPECT_TRUE(PathHasPrefix("/a/b/c", "/a/b/"));
  EXPECT_TRUE(PathHasPrefix("/anything", ""));
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("dom%u:%s", 5u, "x"), "dom5:x");
  EXPECT_EQ(StrFormat("%d", 0), "0");
}

// --- Units ---

TEST(UnitsTest, TimeConversions) {
  EXPECT_EQ(FromSeconds(1.5), 1'500'000'000ull);
  EXPECT_DOUBLE_EQ(ToSeconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(kSecond), 1000.0);
}

TEST(UnitsTest, TransferTimeAtGigabit) {
  // 1 Gb/s = 125 MB/s: 125 MB should take 1 second.
  EXPECT_NEAR(static_cast<double>(TransferTime(125'000'000, 1e9)),
              static_cast<double>(kSecond), 1e3);
}

TEST(UnitsTest, PageConstants) {
  EXPECT_EQ(kPageSize, 4096u);
  EXPECT_EQ(kMiB / kKiB, 1024u);
}

// --- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, RangesRespectBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.NextInRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolRoughlyFair) {
  Rng rng(9);
  int heads = 0;
  for (int i = 0; i < 10'000; ++i) {
    heads += rng.NextBool(0.5) ? 1 : 0;
  }
  EXPECT_NEAR(heads, 5000, 300);
}

// --- HashChain ---

TEST(HashChainTest, AppendChangesHead) {
  HashChain chain;
  const std::uint64_t h1 = chain.Append("a");
  const std::uint64_t h2 = chain.Append("b");
  EXPECT_NE(h1, h2);
  EXPECT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain.head(), h2);
}

TEST(HashChainTest, VerifiesIntactRecords) {
  HashChain chain;
  std::vector<std::string> records = {"alpha", "beta", "gamma"};
  for (const auto& record : records) {
    chain.Append(record);
  }
  EXPECT_EQ(chain.VerifyAgainst(records), -1);
}

TEST(HashChainTest, DetectsTamperedRecord) {
  HashChain chain;
  std::vector<std::string> records = {"alpha", "beta", "gamma"};
  for (const auto& record : records) {
    chain.Append(record);
  }
  records[1] = "BETA";
  EXPECT_EQ(chain.VerifyAgainst(records), 1);
}

TEST(HashChainTest, DetectsLengthMismatch) {
  HashChain chain;
  chain.Append("a");
  EXPECT_EQ(chain.VerifyAgainst({}), 0);
}

TEST(HashChainTest, OrderMatters) {
  HashChain ab, ba;
  ab.Append("a");
  ab.Append("b");
  ba.Append("b");
  ba.Append("a");
  EXPECT_NE(ab.head(), ba.head());
}

// --- DomidTable ---

TEST(DomidTableTest, FindNeverGrowsTheTable) {
  DomidTable<int> table;
  EXPECT_EQ(table.Find(DomainId(0)), nullptr);
  table.Insert(DomainId(3), std::make_unique<int>(30));
  EXPECT_EQ(table.slot_count(), 4u);
  for (const DomainId id : {DomainId(0), DomainId(2), DomainId(4),
                            DomainId(1u << 30), DomainId::Invalid()}) {
    EXPECT_EQ(table.Find(id), nullptr);
    EXPECT_FALSE(table.Contains(id));
    EXPECT_FALSE(table.Erase(id));
  }
  EXPECT_EQ(table.slot_count(), 4u);
  ASSERT_NE(table.Find(DomainId(3)), nullptr);
  EXPECT_EQ(*table.Find(DomainId(3)), 30);
}

TEST(DomidTableTest, EntriesSurviveGrowthAndIterateInDomidOrder) {
  DomidTable<int> table;
  int& first = table.Insert(DomainId(5), std::make_unique<int>(50));
  table.Insert(DomainId(1), std::make_unique<int>(10));
  table.Insert(DomainId(1000), std::make_unique<int>(10000));
  EXPECT_EQ(&first, table.Find(DomainId(5)));  // not moved by the resize
  EXPECT_TRUE(table.Erase(DomainId(1)));
  EXPECT_EQ(table.Find(DomainId(1)), nullptr);
  table.Insert(DomainId(2), std::make_unique<int>(20));
  std::vector<std::uint32_t> ids;
  std::vector<int> values;
  table.ForEach([&](DomainId id, const int& value) {
    ids.push_back(id.value());
    values.push_back(value);
  });
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{2, 5, 1000}));
  EXPECT_EQ(values, (std::vector<int>{20, 50, 10000}));
}

}  // namespace
}  // namespace xoar
