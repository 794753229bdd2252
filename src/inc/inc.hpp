#pragma once
// Umbrella header for src/inc: warm-started max-concurrent-flow solves.
//
// Consecutive points of a sweep (failure levels, design candidates) often
// re-solve the same or a slightly edited MCF instance. inc::McfWarmCache
// resumes Garg-Koenemann from the previous solve's terminal state instead
// of starting cold, and re-certifies every warm result through
// check::certify. APL needs no warm path: the batched bit-parallel BFS
// (graph::weighted_apl*, via topo::server_apl*) is cheaper cold.
//
// Warm tiers and the exactness argument: docs/incremental.md and
// DESIGN.md §8. Tests: tests/inc (ctest -L inc).
//
// Entry point:
//   inc::McfWarmCache          — warm-started max_concurrent_flow

#include "inc/mcf_warm.hpp"
