// Atomic multi-file updates: the §7 future-work feature, demonstrated.
//
// Two account ledgers (transactional file Ejects) and a coordinator. A
// transfer debits one and credits the other inside a transaction; a crash in
// the middle of the two-phase commit cannot leave the books unbalanced.
// A nested sub-transaction computes a fee that the outer transaction can
// keep or discard.
//
//   $ ./bank_transfer
#include <cstdio>

#include "src/eden/kernel.h"
#include "src/fs/transaction.h"

namespace {

eden::Uid Begin(eden::Kernel& kernel, eden::TransactionManager& manager,
                std::optional<eden::Uid> parent = std::nullopt) {
  eden::Value args;
  if (parent) {
    args.Set("parent", eden::Value(*parent));
  }
  return kernel.InvokeAndRun(manager.uid(), "Begin", args)
      .value()
      .Field("txn")
      .UidOr(eden::Uid());
}

void ShowLedgers(const char* when, eden::TFile& a, eden::TFile& b) {
  std::printf("%s\n  savings : %s\n  checking: %s\n", when,
              a.committed_lines().empty() ? "(empty)" : a.committed_lines().back().c_str(),
              b.committed_lines().empty() ? "(empty)" : b.committed_lines().back().c_str());
}

}  // namespace

int main() {
  eden::Kernel kernel;
  eden::TFile::RegisterType(kernel);
  eden::TransactionManager::RegisterType(kernel);

  eden::TransactionManager& manager =
      kernel.CreateLocal<eden::TransactionManager>();
  eden::TFile& savings = kernel.CreateLocal<eden::TFile>("balance 100\n");
  eden::TFile& checking = kernel.CreateLocal<eden::TFile>("balance 10\n");

  ShowLedgers("before:", savings, checking);

  // ---- An aborted transfer leaves no trace.
  {
    eden::Uid txn = Begin(kernel, manager);
    for (eden::TFile* file : {&savings, &checking}) {
      (void)kernel.InvokeAndRun(manager.uid(), "Enlist",
                                eden::Value()
                                    .Set("txn", eden::Value(txn))
                                    .Set("file", eden::Value(file->uid())));
    }
    (void)kernel.InvokeAndRun(savings.uid(), "TWrite",
                              eden::Value()
                                  .Set("txn", eden::Value(txn))
                                  .Set("index", eden::Value(0))
                                  .Set("line", eden::Value("balance 0")));
    (void)kernel.InvokeAndRun(manager.uid(), "Abort",
                              eden::Value().Set("txn", eden::Value(txn)));
    ShowLedgers("after aborted raid:", savings, checking);
  }

  // ---- A committed transfer with a nested fee calculation.
  {
    eden::Uid txn = Begin(kernel, manager);
    for (eden::TFile* file : {&savings, &checking}) {
      (void)kernel.InvokeAndRun(manager.uid(), "Enlist",
                                eden::Value()
                                    .Set("txn", eden::Value(txn))
                                    .Set("file", eden::Value(file->uid())));
    }
    (void)kernel.InvokeAndRun(savings.uid(), "TWrite",
                              eden::Value()
                                  .Set("txn", eden::Value(txn))
                                  .Set("index", eden::Value(0))
                                  .Set("line", eden::Value("balance 60")));
    (void)kernel.InvokeAndRun(checking.uid(), "TWrite",
                              eden::Value()
                                  .Set("txn", eden::Value(txn))
                                  .Set("index", eden::Value(0))
                                  .Set("line", eden::Value("balance 50")));

    // Nested: append an audit line; the child commits into the parent.
    eden::Uid audit = Begin(kernel, manager, txn);
    (void)kernel.InvokeAndRun(manager.uid(), "Enlist",
                              eden::Value()
                                  .Set("txn", eden::Value(audit))
                                  .Set("file", eden::Value(checking.uid())));
    (void)kernel.InvokeAndRun(checking.uid(), "TAppend",
                              eden::Value()
                                  .Set("txn", eden::Value(audit))
                                  .Set("line", eden::Value("audit: +40 from savings")));
    (void)kernel.InvokeAndRun(manager.uid(), "Commit",
                              eden::Value().Set("txn", eden::Value(audit)));

    // Crash one participant between its Prepare and the apply: recovery via
    // the coordinator's durable outcome still lands the whole transfer.
    (void)kernel.InvokeAndRun(savings.uid(), "Prepare",
                              eden::Value().Set("txn", eden::Value(txn)));
    kernel.Crash(savings.uid());
    std::printf("(savings crashed between prepare and commit)\n");

    eden::InvokeResult committed = kernel.InvokeAndRun(
        manager.uid(), "Commit", eden::Value().Set("txn", eden::Value(txn)));
    std::printf("commit: %s\n", committed.status.ToString().c_str());
  }

  eden::TFile* revived = static_cast<eden::TFile*>(kernel.Find(savings.uid()));
  ShowLedgers("after committed transfer:", revived ? *revived : savings, checking);
  std::printf("  checking ledger lines:\n");
  for (const std::string& line : checking.committed_lines()) {
    std::printf("    | %s\n", line.c_str());
  }
  std::printf("\nstats: %s\n", kernel.stats().ToString().c_str());
  return 0;
}
