/**
 * @file
 * Tests for batched (structure-of-arrays) event delivery, the one
 * producer->consumer interface: EventBatch mechanics, stream identity
 * across fillBatch chunkings, run() batch sizes and skip(),
 * simulation equivalence across batch sizes and selectors,
 * batch-boundary edge cases, early-stop semantics of BatchSink and
 * the PerEventSink adapter, and batched trace replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "dynopt/dynopt_system.hpp"
#include "program/executor.hpp"
#include "program/program_builder.hpp"
#include "program/trace_io.hpp"
#include "testing/differential.hpp"
#include "testing/random_program.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

Program
gzipProgram()
{
    return findWorkload("gzip")->build(42);
}

/** Batch recorder flattening batches back into one stream. */
struct RecordBatchSink : BatchSink
{
    std::size_t
    onBatch(const EventBatch &batch) override
    {
        ++batches;
        maxBatch = std::max(maxBatch, batch.size());
        ids.insert(ids.end(), batch.blockIds.begin(),
                   batch.blockIds.end());
        taken.insert(taken.end(), batch.takenFlags.begin(),
                     batch.takenFlags.end());
        branch.insert(branch.end(), batch.branchAddrs.begin(),
                      batch.branchAddrs.end());
        return batch.size();
    }
    std::vector<BlockId> ids;
    std::vector<std::uint8_t> taken;
    std::vector<Addr> branch;
    std::size_t batches = 0;
    std::size_t maxBatch = 0;
};

TEST(EventBatchTest, PushClearReserve)
{
    EventBatch b;
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.size(), 0u);
    b.reserve(16);
    b.push(3, true, 0x40);
    b.push(7, false, invalidAddr);
    EXPECT_EQ(b.size(), 2u);
    EXPECT_FALSE(b.empty());
    EXPECT_EQ(b.blockIds[0], 3u);
    EXPECT_EQ(b.takenFlags[0], 1u);
    EXPECT_EQ(b.branchAddrs[0], 0x40u);
    EXPECT_EQ(b.blockIds[1], 7u);
    EXPECT_EQ(b.takenFlags[1], 0u);
    b.clear();
    EXPECT_TRUE(b.empty());
    // clear() keeps capacity: pushing again does not reallocate the
    // stripes (observable via data pointers).
    const BlockId *p = b.blockIds.data();
    b.push(1, false, invalidAddr);
    EXPECT_EQ(b.blockIds.data(), p);
}

TEST(BatchDispatchTest, FillBatchProducesRunStream)
{
    const Program prog = gzipProgram();
    constexpr std::uint64_t events = 50'000;

    // Reference: one event per batch.
    RecordBatchSink ref;
    {
        Executor exec(prog, 7);
        EXPECT_EQ(exec.run(events, ref, 1), events);
        EXPECT_EQ(ref.maxBatch, 1u);
    }

    // Same seed, consumed through fillBatch in uneven chunks.
    Executor exec(prog, 7);
    EventBatch batch;
    std::vector<BlockId> ids;
    std::vector<std::uint8_t> taken;
    std::vector<Addr> branch;
    const std::size_t sizes[] = {1, 2, 509, 4096, 3, 100'000};
    std::size_t si = 0;
    while (ids.size() < events) {
        const std::size_t want =
            std::min<std::size_t>(sizes[si++ % 6],
                                  events - ids.size());
        const std::uint64_t got = exec.fillBatch(batch, want);
        EXPECT_EQ(got, batch.size());
        EXPECT_LE(got, want);
        if (got == 0)
            break;
        ids.insert(ids.end(), batch.blockIds.begin(),
                   batch.blockIds.end());
        taken.insert(taken.end(), batch.takenFlags.begin(),
                     batch.takenFlags.end());
        branch.insert(branch.end(), batch.branchAddrs.begin(),
                      batch.branchAddrs.end());
    }
    EXPECT_EQ(ids, ref.ids);
    EXPECT_EQ(taken, ref.taken);
    EXPECT_EQ(branch, ref.branch);
    EXPECT_EQ(exec.executedBlocks(), events);
}

TEST(BatchDispatchTest, RunDeliversIdenticalStreamAtEveryBatchSize)
{
    const Program prog = gzipProgram();
    constexpr std::uint64_t events = 30'000;

    RecordBatchSink ref;
    {
        Executor exec(prog, 7);
        exec.run(events, ref, 1);
    }
    for (const std::size_t bs : {std::size_t{2}, std::size_t{509},
                                 defaultBatchSize}) {
        SCOPED_TRACE(bs);
        Executor exec(prog, 7);
        RecordBatchSink sink;
        EXPECT_EQ(exec.run(events, sink, bs), events);
        EXPECT_EQ(sink.ids, ref.ids);
        EXPECT_EQ(sink.taken, ref.taken);
        EXPECT_EQ(sink.branch, ref.branch);
        EXPECT_LE(sink.maxBatch, bs);
        EXPECT_GE(sink.batches, events / bs);
    }
}

TEST(BatchDispatchTest, BatchSizesGiveIdenticalSimulations)
{
    // The headline equivalence: for every selector, the DynOptSystem
    // run is byte-identical at every batch size — batch size 1
    // (maximal boundary count) is the reference, and odd sizes end
    // batches mid-region and mid-trace-formation.
    const Program prog = gzipProgram();
    for (const Algorithm algo : allSelectors) {
        SCOPED_TRACE(algorithmName(algo));
        SimOptions opts;
        opts.maxEvents = 60'000;
        opts.seed = 7;
        opts.batchSize = 1;
        const std::string fp =
            testing::resultFingerprint(simulate(prog, algo, opts));
        for (const std::size_t bs : {std::size_t{2}, std::size_t{257},
                                     defaultBatchSize}) {
            opts.batchSize = bs;
            EXPECT_EQ(testing::resultFingerprint(
                          simulate(prog, algo, opts)),
                      fp)
                << "batch size " << bs;
        }
    }
}

TEST(BatchDispatchTest, SinkCanStopMidBatch)
{
    const Program prog = gzipProgram();

    // A sink that consumes only the first `limit` events overall.
    struct StoppingSink : BatchSink
    {
        explicit StoppingSink(std::size_t limit) : remaining(limit) {}
        std::size_t
        onBatch(const EventBatch &batch) override
        {
            const std::size_t take =
                std::min(batch.size(), remaining);
            remaining -= take;
            consumed += take;
            return take;
        }
        std::size_t remaining;
        std::size_t consumed = 0;
    };

    // Stop point in the middle of the second batch.
    StoppingSink sink(1500);
    Executor exec(prog, 7);
    const std::uint64_t consumed = exec.run(100'000, sink, 1000);
    EXPECT_EQ(consumed, 1500u);
    EXPECT_EQ(sink.consumed, 1500u);
    // The producer had already advanced past the whole second batch:
    // the unconsumed tail is dropped, not replayed.
    EXPECT_EQ(exec.executedBlocks(), 2000u);
    EXPECT_FALSE(exec.finished());
}

TEST(BatchDispatchTest, ReplayFillBatchMatchesLiveStream)
{
    // Zero-copy replay: TraceReplayer::fillBatch decodes straight
    // into the stripes and reproduces the recorded stream exactly,
    // including the reconstructed taken flags and branch addresses.
    const Program prog = gzipProgram();
    constexpr std::uint64_t events = 20'000;

    std::ostringstream os;
    RecordBatchSink ref;
    {
        Executor exec(prog, 7);
        TraceWriter writer(os, prog);
        struct Tee : BatchSink
        {
            Tee(RecordBatchSink &a, TraceWriter &b) : rec(a), wr(b) {}
            std::size_t
            onBatch(const EventBatch &batch) override
            {
                rec.onBatch(batch);
                return wr.onBatch(batch);
            }
            RecordBatchSink &rec;
            TraceWriter &wr;
        } tee(ref, writer);
        exec.run(events, tee);
        writer.finish();
    }

    std::istringstream is(os.str());
    TraceReplayer rp(prog, is);
    RecordBatchSink sink;
    EXPECT_EQ(rp.run(events, sink, 509), events);
    EXPECT_EQ(sink.ids, ref.ids);
    EXPECT_EQ(sink.taken, ref.taken);
    EXPECT_EQ(sink.branch, ref.branch);
}

TEST(BatchDispatchTest, BatchedRunAgreesOnTermination)
{
    // Whether a generated program halts inside the cap or the cap
    // stops it, batch sizes 1 and 777 agree on the total event
    // count, the finished flag, and the stream itself — including
    // the final partial batch.
    testing::GenSpec spec = testing::GenSpec::fromSeed(2);
    spec.clamp();
    const Program prog = testing::generateProgram(spec);
    constexpr std::uint64_t cap = 100'000;

    RecordBatchSink ref;
    std::uint64_t total;
    bool refFinished;
    {
        Executor exec(prog, spec.execSeed);
        total = exec.run(cap, ref, 1);
        refFinished = exec.finished();
    }
    Executor exec(prog, spec.execSeed);
    RecordBatchSink sink;
    EXPECT_EQ(exec.run(cap, sink, 777), total);
    EXPECT_EQ(exec.finished(), refFinished);
    EXPECT_EQ(sink.ids, ref.ids);
}

TEST(BatchDispatchTest, SkipThenFillMatchesTailOfOneLongFill)
{
    // skip(n) fast-forwards exactly: the stream after it is the tail
    // of one uninterrupted fill, RNG state, phase and call stack
    // included. Skip lengths straddle the internal scratch size.
    const Program prog = gzipProgram();
    constexpr std::size_t tail = 3'000;
    for (const std::uint64_t n :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{4095},
          std::uint64_t{4096}, std::uint64_t{10'001}}) {
        SCOPED_TRACE(n);
        Executor whole(prog, 7);
        EventBatch all;
        ASSERT_EQ(
            whole.fillBatch(all, static_cast<std::size_t>(n) + tail),
            n + tail);

        Executor skipped(prog, 7);
        EXPECT_EQ(skipped.skip(n), n);
        EXPECT_EQ(skipped.executedBlocks(), n);
        EventBatch rest;
        ASSERT_EQ(skipped.fillBatch(rest, tail), tail);
        EXPECT_TRUE(std::equal(rest.blockIds.begin(),
                               rest.blockIds.end(),
                               all.blockIds.begin() + n));
        EXPECT_TRUE(std::equal(rest.takenFlags.begin(),
                               rest.takenFlags.end(),
                               all.takenFlags.begin() + n));
        EXPECT_TRUE(std::equal(rest.branchAddrs.begin(),
                               rest.branchAddrs.end(),
                               all.branchAddrs.begin() + n));
        EXPECT_EQ(skipped.currentPhase(), whole.currentPhase());
    }

    // Past a halt, skip() stops short and reports how far it got.
    ProgramBuilder b(1);
    b.beginFunction("main");
    b.block(2);
    b.halt(b.block(2));
    const Program halting = b.build();
    Executor exec(halting, 7);
    EXPECT_EQ(exec.skip(5), 2u);
    EXPECT_TRUE(exec.finished());
}

TEST(BatchDispatchTest, PerEventSinkResolvesEveryEventAndStops)
{
    // The per-event adapter hands onEvent() exactly the events of
    // the stripes, resolved through the program, and a false
    // consumes up to and including that event.
    const Program prog = gzipProgram();
    struct Recorder : PerEventSink
    {
        Recorder(const Program &p, std::size_t stopAt)
            : PerEventSink(p), stopAt(stopAt)
        {
        }
        bool
        onEvent(const ExecEvent &ev) override
        {
            ids.push_back(ev.block->id());
            taken.push_back(ev.takenBranch ? 1 : 0);
            branch.push_back(ev.branchAddr);
            return ids.size() != stopAt;
        }
        std::size_t stopAt;
        std::vector<BlockId> ids;
        std::vector<std::uint8_t> taken;
        std::vector<Addr> branch;
    };

    RecordBatchSink ref;
    {
        Executor exec(prog, 7);
        exec.run(5'000, ref);
    }
    Recorder all(prog, 0);
    {
        Executor exec(prog, 7);
        EXPECT_EQ(exec.run(5'000, all, 509), 5'000u);
    }
    EXPECT_EQ(all.ids, ref.ids);
    EXPECT_EQ(all.taken, ref.taken);
    EXPECT_EQ(all.branch, ref.branch);

    // A false mid-batch: 1500 consumed, the rest of the second batch
    // of 1000 dropped.
    Recorder stop(prog, 1'500);
    Executor exec(prog, 7);
    EXPECT_EQ(exec.run(5'000, stop, 1'000), 1'500u);
    EXPECT_EQ(stop.ids.size(), 1'500u);
    EXPECT_EQ(exec.executedBlocks(), 2'000u);
}

} // namespace
} // namespace rsel
