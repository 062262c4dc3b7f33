// Transactions and atomic updates for the Eden file system.
//
// Paper §7: "The preliminary design for the full Eden file system
// incorporates nested transactions and atomic updates [10]. The
// implementation of a subset which excludes transactions is underway."
//
// This module implements the part the prototype had NOT finished: a
// transaction coordinator Eject providing atomic multi-file updates with
// nested sub-transactions, in the style of the cited Eden Transaction-Based
// File System (Jessop et al. 1982). It is deliberately built from the
// primitives the paper gives us — invocation and Checkpoint — with no new
// kernel mechanism:
//
//  * TFile: a transactional file Eject. Reads and writes are qualified by a
//    transaction identifier (a capability UID). Writes go to a per-
//    transaction shadow; Prepare makes the shadow durable (Checkpoint);
//    Commit atomically installs it; Abort discards it.
//  * TransactionManager: an Eject that coordinates two-phase commit across
//    the TFiles touched by a transaction, and keeps a durable commit record
//    so that a crash between the two phases resolves consistently on
//    reactivation.
//  * Nested transactions: Begin {parent} creates a sub-transaction whose
//    effects become visible to the parent on commit and vanish on abort —
//    the parent's shadow is the child's backing store.
//
// Protocol summary (all via ordinary invocations):
//   TransactionManager:
//     Begin   {parent?}          -> {txn: uid}
//     Commit  {txn}              -> {} (two-phase across enlisted files)
//     Abort   {txn}              -> {}
//     Status  {txn}              -> {state: str}
//   TFile (in addition to read-only Transfer on "out"):
//     TRead   {txn, index}       -> {line}         read through shadows
//     TWrite  {txn, index, line} -> {}             write to shadow
//     TAppend {txn, line}        -> {}
//     TSize   {txn}              -> {lines}
//   (Prepare/CommitFile/AbortFile are manager-internal but, per the paper's
//   honesty discussion, not hidden — misuse is detectable, not prevented.)
#ifndef SRC_FS_TRANSACTION_H_
#define SRC_FS_TRANSACTION_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/eden/eject.h"

namespace eden {

// ---------------------------------------------------------------------------
// TFile: a line-addressable file supporting transactional access.
class TFile : public Eject {
 public:
  static constexpr const char* kType = "TFile";

  explicit TFile(Kernel& kernel, std::string initial_text = "");

  static void RegisterType(Kernel& kernel);

  Value SaveState() override;
  void RestoreState(const Value& state) override;

  // Test/inspection helpers.
  std::vector<std::string> committed_lines() const { return base_; }
  size_t open_shadow_count() const { return shadows_.size(); }

 private:
  struct Shadow {
    // Sparse overlay: index -> new content. Appends extend `size`.
    std::map<int64_t, std::string> writes;
    int64_t size = 0;       // logical size seen by this transaction
    bool prepared = false;  // durable, awaiting commit/abort
  };

  Shadow& ShadowFor(const Uid& txn);
  std::optional<std::string> ReadThrough(const Shadow& shadow, int64_t index) const;

  void HandleTRead(InvocationContext ctx);
  void HandleTWrite(InvocationContext ctx);
  void HandleTAppend(InvocationContext ctx);
  void HandleTSize(InvocationContext ctx);
  void HandlePrepare(InvocationContext ctx);
  void HandleCommitFile(InvocationContext ctx);
  void HandleAbortFile(InvocationContext ctx);

  std::vector<std::string> base_;  // committed contents
  std::map<Uid, Shadow> shadows_;  // per-transaction overlays
};

// ---------------------------------------------------------------------------
// TransactionManager: coordinator with durable commit records.
class TransactionManager : public Eject {
 public:
  static constexpr const char* kType = "TransactionManager";

  explicit TransactionManager(Kernel& kernel);

  static void RegisterType(Kernel& kernel);

  Value SaveState() override;
  void RestoreState(const Value& state) override;

 private:
  enum class TxnState { kActive, kPreparing, kCommitted, kAborted };
  struct Txn {
    Uid parent;                    // nil for top-level
    std::set<Uid> files;           // enlisted TFiles
    std::set<Uid> children;        // live sub-transactions
    TxnState state = TxnState::kActive;
  };

  static std::string StateName(TxnState state);

  void HandleBegin(InvocationContext ctx);
  Task<void> HandleCommit(InvocationContext ctx);
  Task<void> HandleAbort(InvocationContext ctx);
  void HandleStatus(InvocationContext ctx);

  // Aborts a transaction and (recursively) its live children.
  Task<void> AbortTree(Uid txn);

  std::map<Uid, Txn> transactions_;
  // Durable outcomes (survives crashes via Checkpoint): txn -> committed?
  std::map<Uid, bool> outcomes_;
};

}  // namespace eden

#endif  // SRC_FS_TRANSACTION_H_
