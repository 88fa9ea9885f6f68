//===- mm/ManagerFactory.cpp - Managers by name ---------------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "mm/ManagerFactory.h"

#include "mm/BuddyManager.h"
#include "mm/BumpCompactor.h"
#include "mm/ChunkedManager.h"
#include "mm/EvacuatingCompactor.h"
#include "mm/HybridManager.h"
#include "mm/MeshingCompactor.h"
#include "mm/PagedSpaceManager.h"
#include "mm/SegregatedFitManager.h"
#include "mm/SequentialFitManagers.h"
#include "mm/SlidingCompactor.h"
#include "realloc/CostObliviousAllocator.h"
#include "realloc/NeverMoveAllocator.h"
#include "realloc/TightSpanAllocator.h"

using namespace pcb;

std::unique_ptr<MemoryManager> pcb::createManager(const std::string &Policy,
                                                  Heap &H, double C,
                                                  uint64_t LiveBound) {
  if (Policy == "first-fit")
    return std::make_unique<FirstFitManager>(H, C);
  if (Policy == "best-fit")
    return std::make_unique<BestFitManager>(H, C);
  if (Policy == "next-fit")
    return std::make_unique<NextFitManager>(H, C);
  if (Policy == "worst-fit")
    return std::make_unique<WorstFitManager>(H, C);
  if (Policy == "aligned-fit")
    return std::make_unique<AlignedFitManager>(H, C);
  if (Policy == "buddy")
    return std::make_unique<BuddyManager>(H, C);
  if (Policy == "segregated-fit")
    return std::make_unique<SegregatedFitManager>(H, C);
  if (Policy == "paged-space")
    return std::make_unique<PagedSpaceManager>(H, C);
  if (Policy == "chunked")
    return std::make_unique<ChunkedManager>(H, C);
  if (Policy == "meshing")
    return std::make_unique<MeshingCompactor>(H, C);
  if (Policy == "evacuating")
    return std::make_unique<EvacuatingCompactor>(H, C);
  if (Policy == "hybrid")
    return std::make_unique<HybridManager>(H, C);
  if (Policy == "sliding")
    return std::make_unique<SlidingCompactor>(H, C);
  if (Policy == "sliding-unlimited")
    return std::make_unique<SlidingCompactor>(H, /*C=*/0.0);
  if (Policy == "bump-compactor")
    return LiveBound == 0
               ? nullptr
               : std::make_unique<BumpCompactor>(H, C, LiveBound);
  // The reallocation family (DESIGN.md §17). These ignore C: each is
  // c-partial with c = 1/bound fixed by its scheme (1 for the bucket
  // backfill, 1/2 for Jin's repacker, +infinity for never-move).
  if (Policy == "realloc-never")
    return std::make_unique<NeverMoveAllocator>(H);
  if (Policy == "realloc-bucket")
    return std::make_unique<CostObliviousAllocator>(H);
  if (Policy == "realloc-jin")
    return std::make_unique<TightSpanAllocator>(H);
  return nullptr;
}

std::unique_ptr<MemoryManager>
pcb::createManagerChecked(const std::string &Policy, Heap &H, double C,
                          uint64_t LiveBound, std::string *Error) {
  std::unique_ptr<MemoryManager> MM = createManager(Policy, H, C, LiveBound);
  if (MM)
    return MM;
  if (Error) {
    if (Policy == "bump-compactor")
      *Error = "policy 'bump-compactor' requires a live bound (the "
               "program's M) to size its compaction period";
    else
      *Error = "unknown policy '" + Policy +
               "'; valid policies: " + managerPolicyList();
  }
  return nullptr;
}

std::string pcb::managerPolicyList() {
  std::string List;
  for (const std::string &Name : allManagerPolicies()) {
    if (!List.empty())
      List += ", ";
    List += Name;
  }
  return List;
}

std::vector<std::string> pcb::allManagerPolicies() {
  std::vector<std::string> All = compactionFamilyPolicies();
  for (const std::string &Name : reallocManagerPolicies())
    All.push_back(Name);
  return All;
}

std::vector<std::string> pcb::compactionFamilyPolicies() {
  return {"first-fit",      "best-fit",       "next-fit",
          "worst-fit",      "aligned-fit",    "buddy",
          "segregated-fit", "chunked",        "meshing",
          "evacuating",     "hybrid",         "paged-space",
          "sliding",        "sliding-unlimited", "bump-compactor"};
}

std::vector<std::string> pcb::reallocManagerPolicies() {
  return {"realloc-never", "realloc-bucket", "realloc-jin"};
}

bool pcb::isReallocPolicy(const std::string &Policy) {
  for (const std::string &Name : reallocManagerPolicies())
    if (Name == Policy)
      return true;
  return false;
}

std::vector<std::string> pcb::nonMovingManagerPolicies() {
  return {"first-fit",   "best-fit", "next-fit",      "worst-fit",
          "aligned-fit", "buddy",    "segregated-fit", "realloc-never"};
}

std::vector<std::string> pcb::compactingManagerPolicies() {
  return {"chunked",     "meshing", "evacuating",     "hybrid",
          "paged-space", "sliding", "bump-compactor"};
}

bool pcb::isNonMovingPolicy(const std::string &Policy) {
  for (const std::string &Name : nonMovingManagerPolicies())
    if (Name == Policy)
      return true;
  return false;
}
