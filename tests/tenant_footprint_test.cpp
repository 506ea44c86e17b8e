/**
 * @file
 * The heap a service tenant keeps: 64 `TenantSpec::fromSeed` sessions
 * are built and run to completion on one arena with the service's
 * default slice size, and the live heap they hold afterwards, divided
 * by the tenant count, must stay below 32 KiB.
 *
 * A tenant should cost what its program needs. `fromSeed` programs
 * have about a dozen blocks, so fixed scratch sized for the largest
 * guest (an event batch kept between slices, metric filters of
 * thousands of slots) would dominate the figure; this test fails if
 * such scratch comes back.
 *
 * The binary replaces the global allocation functions with counting
 * versions (each block carries its size in a header), so it stands
 * alone rather than sharing an executable with other tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "service/tenant_session.hpp"

namespace {

/** Bytes currently allocated through the global operator new. */
std::atomic<std::int64_t> liveBytes{0};

/** Header in front of every block: holds the requested size and
 *  keeps the returned pointer maximally aligned. */
constexpr std::size_t headerBytes = alignof(std::max_align_t);

void *
countedAlloc(std::size_t n)
{
    void *base = std::malloc(n + headerBytes);
    if (base == nullptr)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(base) = n;
    liveBytes.fetch_add(static_cast<std::int64_t>(n),
                        std::memory_order_relaxed);
    return static_cast<char *>(base) + headerBytes;
}

void
countedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    void *base = static_cast<char *>(p) - headerBytes;
    liveBytes.fetch_sub(
        static_cast<std::int64_t>(*static_cast<std::size_t *>(base)),
        std::memory_order_relaxed);
    std::free(base);
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

namespace rsel {
namespace service {
namespace {

TEST(TenantFootprintTest, MeanLiveBytesPerTenantStaySmall)
{
    constexpr std::size_t tenants = 64;
    constexpr std::uint64_t sliceEvents = 4096; // the service default
    constexpr std::int64_t budgetPerTenant = 32 * 1024;

    // The service-fleet shape: 512-byte quotas, so caches fill,
    // flush and refill during the run.
    ArenaConfig cfg;
    cfg.capacityBytes = 512 * tenants;
    ShardedCodeCache arena(cfg);
    std::vector<std::unique_ptr<TenantSession>> sessions;
    sessions.reserve(tenants);

    const std::int64_t before = liveBytes.load();
    for (std::uint64_t seed = 0; seed < tenants; ++seed) {
        sessions.push_back(std::make_unique<TenantSession>(
            arena.registerTenant(), TenantSpec::fromSeed(seed),
            arena.tenantLimits(tenants), arena));
    }
    std::uint64_t events = 0;
    for (const auto &session : sessions) {
        while (session->runSlice(sliceEvents)) {
        }
        events += session->eventsRun();
    }
    const std::int64_t perTenant =
        (liveBytes.load() - before) / static_cast<std::int64_t>(tenants);
    RecordProperty("live_bytes_per_tenant", std::to_string(perTenant));
    std::printf("live bytes per tenant after a full run: %lld\n",
                static_cast<long long>(perTenant));

    ASSERT_GT(events, 0u); // the sessions really ran
    EXPECT_LT(perTenant, budgetPerTenant);

    for (const auto &session : sessions) {
        EXPECT_GT(session->finish().events, 0u);
        session->teardown();
    }
    EXPECT_EQ(arena.stats().liveBytes, 0u);
}

} // namespace
} // namespace service
} // namespace rsel
