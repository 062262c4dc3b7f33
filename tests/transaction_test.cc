// Transactional file system tests (§7 future work: nested transactions and
// atomic updates, reproduced per the cited Eden Transaction-Based FS).
#include <gtest/gtest.h>

#include "src/eden/kernel.h"
#include "src/fs/transaction.h"

namespace eden {
namespace {

class TxnFixture : public ::testing::Test {
 protected:
  TxnFixture() {
    TFile::RegisterType(kernel_);
    TransactionManager::RegisterType(kernel_);
    manager_ = &kernel_.CreateLocal<TransactionManager>();
    manager_uid_ = manager_->uid();
  }

  Uid Begin(std::optional<Uid> parent = std::nullopt) {
    Value args;
    if (parent) {
      args.Set("parent", Value(*parent));
    }
    InvokeResult r = kernel_.InvokeAndRun(manager_uid_, "Begin", args);
    EXPECT_TRUE(r.ok()) << r.status;
    return r.value().Field("txn").UidOr(Uid());
  }

  Status Enlist(Uid txn, Uid file) {
    return kernel_
        .InvokeAndRun(manager_uid_, "Enlist",
                      Value().Set("txn", Value(txn)).Set("file", Value(file)))
        .status;
  }

  Status Commit(Uid txn) {
    return kernel_
        .InvokeAndRun(manager_uid_, "Commit", Value().Set("txn", Value(txn)))
        .status;
  }

  Status Abort(Uid txn) {
    return kernel_
        .InvokeAndRun(manager_uid_, "Abort", Value().Set("txn", Value(txn)))
        .status;
  }

  Status Append(Uid file, Uid txn, const std::string& line) {
    return kernel_
        .InvokeAndRun(file, "TAppend",
                      Value().Set("txn", Value(txn)).Set("line", Value(line)))
        .status;
  }

  Status WriteAt(Uid file, Uid txn, int64_t index, const std::string& line) {
    return kernel_
        .InvokeAndRun(file, "TWrite", Value()
                                          .Set("txn", Value(txn))
                                          .Set("index", Value(index))
                                          .Set("line", Value(line)))
        .status;
  }

  std::optional<std::string> ReadAt(Uid file, Uid txn, int64_t index) {
    InvokeResult r = kernel_.InvokeAndRun(
        file, "TRead", Value().Set("txn", Value(txn)).Set("index", Value(index)));
    if (!r.ok()) {
      return std::nullopt;
    }
    return r.value().Field("line").StrOr("");
  }

  std::string TxnState(Uid txn) {
    InvokeResult r = kernel_.InvokeAndRun(manager_uid_, "Status",
                                          Value().Set("txn", Value(txn)));
    return r.value().Field("state").StrOr("?");
  }

  Kernel kernel_;
  // Crash destroys the manager object (it reactivates as a *new* object),
  // so invocations go through the stable uid, never through manager_.
  TransactionManager* manager_ = nullptr;
  Uid manager_uid_;
};

TEST_F(TxnFixture, CommitMakesWritesVisibleAndDurable) {
  TFile& file = kernel_.CreateLocal<TFile>("old0\nold1\n");
  Uid txn = Begin();
  ASSERT_TRUE(Enlist(txn, file.uid()).ok());
  ASSERT_TRUE(WriteAt(file.uid(), txn, 0, "new0").ok());
  ASSERT_TRUE(Append(file.uid(), txn, "new2").ok());

  // Uncommitted writes are invisible to other transactions.
  Uid other = Begin();
  ASSERT_TRUE(Enlist(other, file.uid()).ok());
  EXPECT_EQ(ReadAt(file.uid(), other, 0), "old0");

  ASSERT_TRUE(Commit(txn).ok());
  EXPECT_EQ(file.committed_lines(),
            (std::vector<std::string>{"new0", "old1", "new2"}));
  EXPECT_EQ(TxnState(txn), "committed");

  // Durable: a crash after commit restores the committed contents.
  Uid file_uid = file.uid();
  kernel_.Crash(file_uid);
  InvokeResult sz = kernel_.InvokeAndRun(
      file_uid, "TSize", Value().Set("txn", Value(Begin())));
  ASSERT_TRUE(sz.ok()) << sz.status;
  EXPECT_EQ(sz.value().Field("lines"), Value(3));
}

TEST_F(TxnFixture, AbortDiscardsWrites) {
  TFile& file = kernel_.CreateLocal<TFile>("keep\n");
  Uid txn = Begin();
  ASSERT_TRUE(Enlist(txn, file.uid()).ok());
  ASSERT_TRUE(WriteAt(file.uid(), txn, 0, "clobber").ok());
  ASSERT_TRUE(Abort(txn).ok());
  EXPECT_EQ(file.committed_lines(), (std::vector<std::string>{"keep"}));
  EXPECT_EQ(TxnState(txn), "aborted");
  EXPECT_EQ(file.open_shadow_count(), 0u);
}

TEST_F(TxnFixture, TransactionSeesItsOwnWrites) {
  TFile& file = kernel_.CreateLocal<TFile>("a\n");
  Uid txn = Begin();
  ASSERT_TRUE(Enlist(txn, file.uid()).ok());
  ASSERT_TRUE(WriteAt(file.uid(), txn, 0, "b").ok());
  EXPECT_EQ(ReadAt(file.uid(), txn, 0), "b");
}

TEST_F(TxnFixture, AtomicAcrossMultipleFiles) {
  TFile& debit = kernel_.CreateLocal<TFile>("balance 100\n");
  TFile& credit = kernel_.CreateLocal<TFile>("balance 0\n");
  Uid txn = Begin();
  ASSERT_TRUE(Enlist(txn, debit.uid()).ok());
  ASSERT_TRUE(Enlist(txn, credit.uid()).ok());
  ASSERT_TRUE(WriteAt(debit.uid(), txn, 0, "balance 60").ok());
  ASSERT_TRUE(WriteAt(credit.uid(), txn, 0, "balance 40").ok());
  ASSERT_TRUE(Commit(txn).ok());
  EXPECT_EQ(debit.committed_lines()[0], "balance 60");
  EXPECT_EQ(credit.committed_lines()[0], "balance 40");
}

TEST_F(TxnFixture, PrepareFailureAbortsWholeTransaction) {
  TFile& good = kernel_.CreateLocal<TFile>("g\n");
  TFile& doomed = kernel_.CreateLocal<TFile>("d\n");
  Uid txn = Begin();
  ASSERT_TRUE(Enlist(txn, good.uid()).ok());
  ASSERT_TRUE(Enlist(txn, doomed.uid()).ok());
  ASSERT_TRUE(WriteAt(good.uid(), txn, 0, "G").ok());
  ASSERT_TRUE(WriteAt(doomed.uid(), txn, 0, "D").ok());

  // A participant that vanished without ever checkpointing cannot prepare.
  kernel_.Crash(doomed.uid());

  EXPECT_FALSE(Commit(txn).ok());
  EXPECT_EQ(TxnState(txn), "aborted");
  EXPECT_EQ(good.committed_lines()[0], "g");  // nothing applied anywhere
}

TEST_F(TxnFixture, NestedChildCommitFoldsIntoParent) {
  TFile& file = kernel_.CreateLocal<TFile>("base\n");
  Uid parent = Begin();
  ASSERT_TRUE(Enlist(parent, file.uid()).ok());
  ASSERT_TRUE(Append(file.uid(), parent, "from-parent").ok());

  Uid child = Begin(parent);
  ASSERT_TRUE(Enlist(child, file.uid()).ok());
  // The child sees the parent's uncommitted view...
  EXPECT_EQ(ReadAt(file.uid(), child, 1), "from-parent");
  ASSERT_TRUE(Append(file.uid(), child, "from-child").ok());
  ASSERT_TRUE(Commit(child).ok());

  // ...child effects are now part of the parent, but still uncommitted.
  EXPECT_EQ(file.committed_lines(), (std::vector<std::string>{"base"}));
  EXPECT_EQ(ReadAt(file.uid(), parent, 2), "from-child");

  ASSERT_TRUE(Commit(parent).ok());
  EXPECT_EQ(file.committed_lines(),
            (std::vector<std::string>{"base", "from-parent", "from-child"}));
}

TEST_F(TxnFixture, NestedChildAbortLeavesParentIntact) {
  TFile& file = kernel_.CreateLocal<TFile>("base\n");
  Uid parent = Begin();
  ASSERT_TRUE(Enlist(parent, file.uid()).ok());
  ASSERT_TRUE(Append(file.uid(), parent, "parent-line").ok());

  Uid child = Begin(parent);
  ASSERT_TRUE(Enlist(child, file.uid()).ok());
  ASSERT_TRUE(Append(file.uid(), child, "child-line").ok());
  ASSERT_TRUE(Abort(child).ok());

  ASSERT_TRUE(Commit(parent).ok());
  EXPECT_EQ(file.committed_lines(),
            (std::vector<std::string>{"base", "parent-line"}));
}

TEST_F(TxnFixture, ParentAbortKillsLiveChildren) {
  TFile& file = kernel_.CreateLocal<TFile>("base\n");
  Uid parent = Begin();
  Uid child = Begin(parent);
  ASSERT_TRUE(Enlist(child, file.uid()).ok());
  ASSERT_TRUE(Append(file.uid(), child, "x").ok());
  ASSERT_TRUE(Abort(parent).ok());
  EXPECT_EQ(TxnState(child), "unknown");  // gone without durable outcome
  EXPECT_EQ(file.committed_lines(), (std::vector<std::string>{"base"}));
  EXPECT_EQ(file.open_shadow_count(), 0u);
}

TEST_F(TxnFixture, CommitWithLiveChildIsRefused) {
  Uid parent = Begin();
  Uid child = Begin(parent);
  EXPECT_TRUE(Commit(parent).is(StatusCode::kInvalidArgument));
  ASSERT_TRUE(Commit(child).ok());
  EXPECT_TRUE(Commit(parent).ok());
}

TEST_F(TxnFixture, CrashBetweenPrepareAndCommitRecoversViaOutcome) {
  // The classic 2PC window: participant prepared, coordinator recorded the
  // commit, participant crashed before applying. ResolveShadows consults the
  // coordinator's durable outcome and applies.
  TFile& file = kernel_.CreateLocal<TFile>("v0\n");
  Uid file_uid = file.uid();
  Uid txn = Begin();
  ASSERT_TRUE(Enlist(txn, file_uid).ok());
  ASSERT_TRUE(WriteAt(file_uid, txn, 0, "v1").ok());

  // Drive the phases by hand to stop inside the window.
  ASSERT_TRUE(kernel_.InvokeAndRun(file_uid, "Prepare",
                                   Value().Set("txn", Value(txn)))
                  .ok());
  // Coordinator records the outcome durably (simulate by doing what Commit
  // does up to its commit point): we reuse Commit, but crash the file first
  // so CommitFile cannot be delivered before the crash...
  kernel_.Crash(file_uid);  // prepared shadow survives (it was checkpointed)

  // Commit succeeds: the outcome is recorded, CommitFile reactivates the
  // file and applies the prepared shadow.
  ASSERT_TRUE(Commit(txn).ok());
  InvokeResult read = kernel_.InvokeAndRun(
      file_uid, "TRead", Value().Set("txn", Value(Begin())).Set("index", Value(0)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().Field("line"), Value("v1"));
}

TEST_F(TxnFixture, ResolveShadowsAppliesCommittedAndDropsUnknown) {
  TFile& file = kernel_.CreateLocal<TFile>("v0\n");
  Uid file_uid = file.uid();

  // Transaction A: prepared (durably) before the crash; the coordinator
  // commits while the participant is down, so the apply happens through
  // reactivation.
  Uid committed_txn = Begin();
  ASSERT_TRUE(Enlist(committed_txn, file_uid).ok());
  ASSERT_TRUE(WriteAt(file_uid, committed_txn, 0, "committed").ok());
  ASSERT_TRUE(kernel_
                  .InvokeAndRun(file_uid, "Prepare",
                                Value().Set("txn", Value(committed_txn)))
                  .ok());

  // Transaction B: prepared but the coordinator never decided (no outcome).
  Uid orphan_txn = kernel_.uids().Next();
  ASSERT_TRUE(kernel_
                  .InvokeAndRun(file_uid, "TAppend",
                                Value()
                                    .Set("txn", Value(orphan_txn))
                                    .Set("line", Value("orphan")))
                  .ok());
  ASSERT_TRUE(kernel_
                  .InvokeAndRun(file_uid, "Prepare",
                                Value().Set("txn", Value(orphan_txn)))
                  .ok());

  kernel_.Crash(file_uid);
  ASSERT_TRUE(Commit(committed_txn).ok());  // applies via reactivation

  // Crash again before resolution of the orphan; then resolve.
  kernel_.Crash(file_uid);
  InvokeResult resolved = kernel_.InvokeAndRun(
      file_uid, "ResolveShadows", Value().Set("manager", Value(manager_uid_)));
  ASSERT_TRUE(resolved.ok()) << resolved.status;
  EXPECT_EQ(resolved.value().Field("discarded"), Value(1));  // presumed abort

  InvokeResult read = kernel_.InvokeAndRun(
      file_uid, "TRead", Value().Set("txn", Value(Begin())).Set("index", Value(0)));
  EXPECT_EQ(read.value().Field("line"), Value("committed"));
  InvokeResult size = kernel_.InvokeAndRun(file_uid, "TSize",
                                           Value().Set("txn", Value(Begin())));
  EXPECT_EQ(size.value().Field("lines"), Value(1));  // orphan append gone
}

TEST_F(TxnFixture, CoordinatorCrashForgetsActiveTransactions) {
  TFile& file = kernel_.CreateLocal<TFile>("v0\n");
  (void)kernel_.InvokeAndRun(manager_uid_, "Status", Value());  // warm up
  kernel_.Checkpoint(*manager_);

  Uid txn = Begin();
  ASSERT_TRUE(Enlist(txn, file.uid()).ok());
  kernel_.Crash(manager_uid_);  // destroys the object behind manager_

  // Reactivated coordinator: the active transaction is gone (presumed
  // abort), durable state intact.
  EXPECT_EQ(TxnState(txn), "unknown");
  EXPECT_TRUE(Commit(txn).is(StatusCode::kNotFound));
}

TEST_F(TxnFixture, ErrorsAreReported) {
  TFile& file = kernel_.CreateLocal<TFile>("a\n");
  Uid txn = Begin();
  EXPECT_TRUE(WriteAt(file.uid(), txn, 5, "x").is(StatusCode::kNotFound));
  EXPECT_TRUE(WriteAt(file.uid(), txn, -1, "x").is(StatusCode::kNotFound));
  EXPECT_TRUE(kernel_.InvokeAndRun(file.uid(), "TRead", Value())
                  .status.is(StatusCode::kInvalidArgument));
  EXPECT_TRUE(Commit(Uid(9, 9)).is(StatusCode::kNotFound));
  EXPECT_TRUE(Abort(Uid(9, 9)).is(StatusCode::kNotFound));
  // Begin with an unknown parent is refused.
  EXPECT_TRUE(kernel_
                  .InvokeAndRun(manager_uid_, "Begin",
                                Value().Set("parent", Value(Uid(9, 9))))
                  .status.is(StatusCode::kNotFound));
  // Writes after prepare are refused.
  ASSERT_TRUE(kernel_.InvokeAndRun(file.uid(), "Prepare",
                                   Value().Set("txn", Value(txn)))
                  .ok());
  EXPECT_TRUE(WriteAt(file.uid(), txn, 0, "x").is(StatusCode::kInvalidArgument));
}

TEST_F(TxnFixture, DeepNesting) {
  TFile& file = kernel_.CreateLocal<TFile>("");
  std::vector<Uid> chain;
  chain.push_back(Begin());
  for (int depth = 1; depth < 6; ++depth) {
    chain.push_back(Begin(chain.back()));
  }
  for (size_t i = 0; i < chain.size(); ++i) {
    ASSERT_TRUE(Enlist(chain[i], file.uid()).ok());
    ASSERT_TRUE(Append(file.uid(), chain[i], "depth " + std::to_string(i)).ok());
  }
  for (size_t i = chain.size(); i-- > 0;) {
    ASSERT_TRUE(Commit(chain[i]).ok()) << i;
  }
  ASSERT_EQ(file.committed_lines().size(), 6u);
  EXPECT_EQ(file.committed_lines().front(), "depth 0");
  EXPECT_EQ(file.committed_lines().back(), "depth 5");
}

}  // namespace
}  // namespace eden
