#include "corpus.h"

#include <utility>

#include "graphs/filterbank.h"
#include "graphs/ptolemy.h"
#include "graphs/random_sdf.h"
#include "graphs/satellite.h"
#include "sdf/io.h"

namespace perfbench {
namespace {

Input make_input(sdf::Graph g, std::string name = {}) {
  Input in;
  in.name = name.empty() ? g.name() : std::move(name);
  in.text = sdf::write_graph_text(g);
  in.graph = std::move(g);
  return in;
}

}  // namespace

std::vector<Input> table1_inputs() {
  using namespace sdf;
  std::vector<Input> out;
  out.push_back(make_input(nqmf23(2)));
  out.push_back(make_input(nqmf23(4)));
  out.push_back(make_input(one_sided_filterbank(4, kRates12, "nqmf12_4d")));
  out.push_back(make_input(qmf23(2)));
  out.push_back(make_input(qmf235(2)));
  out.push_back(make_input(qmf12(2)));
  out.push_back(make_input(qmf23(3)));
  out.push_back(make_input(qmf235(3)));
  out.push_back(make_input(qmf12(3)));
  out.push_back(make_input(qmf23(4)));
  out.push_back(make_input(qmf12(4)));
  out.push_back(make_input(qmf12(5)));
  out.push_back(make_input(qmf235(5)));
  out.push_back(make_input(satellite_receiver()));
  out.push_back(make_input(modem_16qam()));
  out.push_back(make_input(pam4_xmitrec()));
  out.push_back(make_input(block_vox()));
  out.push_back(make_input(overlap_add_fft()));
  out.push_back(make_input(phased_array()));
  return out;
}

Input random_input(int actors, std::mt19937_64& rng, const std::string& name) {
  sdf::RandomSdfOptions options;
  options.num_actors = actors;
  std::mt19937 graph_rng(static_cast<std::uint32_t>(rng()));
  sdf::Graph g = sdf::random_sdf_graph(options, graph_rng);
  g.set_name(name);
  return make_input(std::move(g));
}

std::vector<Input> compile_corpus(bool tiny) {
  using namespace sdf;
  std::vector<Input> out = table1_inputs();
  if (tiny) {
    out.resize(4);
    std::mt19937_64 rng(250);
    out.push_back(random_input(40, rng, "random40"));
    return out;
  }
  out.push_back(make_input(qmf12(6)));
  out.push_back(make_input(qmf12(7)));
  out.push_back(make_input(qmf235(6)));
  out.push_back(make_input(qmf235(7)));
  for (const int actors : {250, 500, 1000}) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(actors));
    out.push_back(
        random_input(actors, rng, "random" + std::to_string(actors)));
  }
  return out;
}

}  // namespace perfbench
