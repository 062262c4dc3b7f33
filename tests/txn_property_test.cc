// Model-based property test for the transactional file system: random
// sequences of transactional operations (begin/write/append/commit/abort,
// with nesting) are applied both to the real TFile/TransactionManager pair
// and to a trivial in-memory reference model; the committed contents must
// agree after every top-level resolution. Random crashes of the file Eject
// are injected between operations; because unprepared work is volatile in
// BOTH the system and the model (presumed abort), agreement must survive
// them.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/eden/kernel.h"
#include "src/eden/random.h"
#include "src/fs/transaction.h"

namespace eden {
namespace {

// The reference model: committed lines plus a stack of transaction overlays.
struct ModelTxn {
  std::map<int64_t, std::string> writes;
  int64_t size = 0;
  int parent = -1;  // index into txns, -1 = top-level
  bool live = true;
};

class Model {
 public:
  explicit Model(std::vector<std::string> base) : base_(std::move(base)) {}

  int Begin(int parent) {
    ModelTxn txn;
    txn.parent = parent;
    if (parent >= 0 && txns_[static_cast<size_t>(parent)].live) {
      txn.writes = txns_[static_cast<size_t>(parent)].writes;
      txn.size = txns_[static_cast<size_t>(parent)].size;
    } else {
      txn.size = static_cast<int64_t>(base_.size());
    }
    txns_.push_back(std::move(txn));
    return static_cast<int>(txns_.size()) - 1;
  }

  bool Write(int txn, int64_t index, const std::string& line) {
    ModelTxn& t = txns_[static_cast<size_t>(txn)];
    if (index < 0 || index >= t.size) {
      return false;
    }
    t.writes[index] = line;
    return true;
  }

  void Append(int txn, const std::string& line) {
    ModelTxn& t = txns_[static_cast<size_t>(txn)];
    t.writes[t.size] = line;
    t.size++;
  }

  void Commit(int txn) {
    ModelTxn& t = txns_[static_cast<size_t>(txn)];
    t.live = false;
    if (t.parent >= 0) {
      ModelTxn& parent = txns_[static_cast<size_t>(t.parent)];
      parent.writes = t.writes;
      parent.size = t.size;
      return;
    }
    base_.resize(static_cast<size_t>(t.size));
    for (const auto& [index, line] : t.writes) {
      if (index >= 0 && static_cast<size_t>(index) < base_.size()) {
        base_[static_cast<size_t>(index)] = line;
      }
    }
  }

  void Abort(int txn) { txns_[static_cast<size_t>(txn)].live = false; }

  const std::vector<std::string>& committed() const { return base_; }

 private:
  std::vector<std::string> base_;
  std::vector<ModelTxn> txns_;
};

class TxnDriver {
 public:
  TxnDriver() {
    TFile::RegisterType(kernel_);
    TransactionManager::RegisterType(kernel_);
    manager_ = &kernel_.CreateLocal<TransactionManager>();
    file_ = &kernel_.CreateLocal<TFile>("seed0\nseed1\n");
    file_uid_ = file_->uid();
    (void)kernel_.InvokeAndRun(file_uid_, "Prepare",
                               Value().Set("txn", Value(kernel_.uids().Next())));
    // The throwaway prepare above checkpointed the base so crashes recover.
  }

  Uid Begin(std::optional<Uid> parent) {
    Value args;
    if (parent) {
      args.Set("parent", Value(*parent));
    }
    InvokeResult r = kernel_.InvokeAndRun(manager_->uid(), "Begin", args);
    EXPECT_TRUE(r.ok());
    Uid txn = r.value().Field("txn").UidOr(Uid());
    EXPECT_TRUE(kernel_
                    .InvokeAndRun(manager_->uid(), "Enlist",
                                  Value().Set("txn", Value(txn)).Set("file",
                                                                     Value(file_uid_)))
                    .ok());
    return txn;
  }

  bool Write(Uid txn, int64_t index, const std::string& line) {
    return kernel_
        .InvokeAndRun(file_uid_, "TWrite", Value()
                                               .Set("txn", Value(txn))
                                               .Set("index", Value(index))
                                               .Set("line", Value(line)))
        .status.ok();
  }

  void Append(Uid txn, const std::string& line) {
    EXPECT_TRUE(kernel_
                    .InvokeAndRun(file_uid_, "TAppend",
                                  Value().Set("txn", Value(txn)).Set("line",
                                                                     Value(line)))
                    .ok());
  }

  bool Commit(Uid txn) {
    return kernel_
        .InvokeAndRun(manager_->uid(), "Commit", Value().Set("txn", Value(txn)))
        .status.ok();
  }

  void Abort(Uid txn) {
    (void)kernel_.InvokeAndRun(manager_->uid(), "Abort",
                               Value().Set("txn", Value(txn)));
  }

  std::vector<std::string> Committed() {
    // Force reactivation if crashed, then read the instance.
    (void)kernel_.InvokeAndRun(file_uid_, "TSize",
                               Value().Set("txn", Value(kernel_.uids().Next())));
    TFile* live = static_cast<TFile*>(kernel_.Find(file_uid_));
    return live != nullptr ? live->committed_lines() : std::vector<std::string>{};
  }

  void CrashFile() { kernel_.Crash(file_uid_); }

  Kernel kernel_;
  TransactionManager* manager_ = nullptr;
  TFile* file_ = nullptr;
  Uid file_uid_;
};

class TxnPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TxnPropertyTest, RandomOperationsMatchReferenceModel) {
  Rng rng(GetParam());
  TxnDriver driver;
  Model model({"seed0", "seed1"});

  // Live transactions: pairs of (system txn uid, model index, parent slot).
  struct Live {
    Uid uid;
    int model_index;
    bool top_level;
    std::vector<size_t> children;  // indexes into live_
  };
  std::vector<Live> live;
  std::vector<bool> active;  // parallel: still usable

  auto begin = [&](int parent_slot) {
    std::optional<Uid> parent_uid;
    int parent_model = -1;
    if (parent_slot >= 0) {
      parent_uid = live[static_cast<size_t>(parent_slot)].uid;
      parent_model = live[static_cast<size_t>(parent_slot)].model_index;
    }
    Live entry;
    entry.uid = driver.Begin(parent_uid);
    entry.model_index = model.Begin(parent_model);
    entry.top_level = parent_slot < 0;
    if (parent_slot >= 0) {
      live[static_cast<size_t>(parent_slot)].children.push_back(live.size());
    }
    live.push_back(entry);
    active.push_back(true);
    return static_cast<int>(live.size()) - 1;
  };

  // Resolving a transaction deactivates it and (on abort) its subtree; on
  // commit children must already be resolved, so we only commit childless
  // ones and abort the rest.
  std::function<void(size_t)> deactivate_tree = [&](size_t slot) {
    active[slot] = false;
    for (size_t child : live[slot].children) {
      if (active[child]) {
        deactivate_tree(child);
      }
    }
  };

  for (int step = 0; step < 120; ++step) {
    // Collect active slots.
    std::vector<size_t> candidates;
    for (size_t i = 0; i < live.size(); ++i) {
      if (active[i]) {
        candidates.push_back(i);
      }
    }
    uint64_t action = rng.Below(10);
    if (candidates.empty() || action <= 2) {
      // Begin (sometimes nested).
      int parent_slot = -1;
      if (!candidates.empty() && rng.Chance(0.4)) {
        parent_slot = static_cast<int>(candidates[rng.Below(candidates.size())]);
      }
      begin(parent_slot);
      continue;
    }
    size_t slot = candidates[rng.Below(candidates.size())];
    Live& txn = live[slot];
    bool childless = true;
    for (size_t child : txn.children) {
      if (active[child]) {
        childless = false;
        break;
      }
    }
    switch (action) {
      case 3:
      case 4: {  // Write at a random (possibly invalid) index
        int64_t index = rng.Range(-1, 6);
        std::string line = rng.Word(1, 6);
        bool system_ok = driver.Write(txn.uid, index, line);
        bool model_ok = model.Write(txn.model_index, index, line);
        EXPECT_EQ(system_ok, model_ok) << "step " << step;
        break;
      }
      case 5:
      case 6: {  // Append
        std::string line = rng.Word(1, 6);
        driver.Append(txn.uid, line);
        model.Append(txn.model_index, line);
        break;
      }
      case 7: {  // Commit (only childless, matching the system's rule)
        if (childless) {
          EXPECT_TRUE(driver.Commit(txn.uid)) << "step " << step;
          model.Commit(txn.model_index);
          deactivate_tree(slot);
          EXPECT_EQ(driver.Committed(), model.committed()) << "step " << step;
        }
        break;
      }
      case 8: {  // Abort (aborts the whole subtree both sides)
        driver.Abort(txn.uid);
        std::function<void(size_t)> abort_models = [&](size_t s) {
          model.Abort(live[s].model_index);
          for (size_t child : live[s].children) {
            if (active[child]) {
              abort_models(child);
            }
          }
        };
        abort_models(slot);
        deactivate_tree(slot);
        EXPECT_EQ(driver.Committed(), model.committed()) << "step " << step;
        break;
      }
      case 9: {  // Crash the file: every live transaction dies both sides
        driver.CrashFile();
        for (size_t i = 0; i < live.size(); ++i) {
          if (active[i]) {
            model.Abort(live[i].model_index);
            driver.Abort(live[i].uid);  // coordinator cleans its side
            deactivate_tree(i);
          }
        }
        EXPECT_EQ(driver.Committed(), model.committed()) << "step " << step;
        break;
      }
      default:
        break;
    }
  }
  // Final resolution: abort everything still live, then compare.
  for (size_t i = 0; i < live.size(); ++i) {
    if (active[i]) {
      driver.Abort(live[i].uid);
      model.Abort(live[i].model_index);
      deactivate_tree(i);
    }
  }
  EXPECT_EQ(driver.Committed(), model.committed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace eden
