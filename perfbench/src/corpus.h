// Inputs of the benchmark workloads, built only from the library's
// public graph generators.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sdf/graph.h"

namespace perfbench {

struct Input {
  std::string name;
  sdf::Graph graph;
  std::string text;  ///< write_graph_text(graph): what a client sends
};

/// The 19 practical systems of the paper's Table 1.
std::vector<Input> table1_inputs();

/// The compile corpus: Table 1, qmf12 and qmf235 at depths 6 and 7, and
/// random SDF graphs of 250, 500 and 1000 actors drawn from fixed seeds,
/// so the corpus (and its shared_words) is the same for every run seed.
/// `tiny` keeps only a few small graphs, for the smoke check.
std::vector<Input> compile_corpus(bool tiny);

/// One random SDF graph of `actors` actors drawn from `rng`.
Input random_input(int actors, std::mt19937_64& rng, const std::string& name);

}  // namespace perfbench
