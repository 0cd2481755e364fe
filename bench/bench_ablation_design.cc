// Ablations of this implementation's own design choices (beyond the
// paper's Table VIII):
//   1. verifier feature families (lexical / +alignment / +interpreter);
//   2. NL-Generator noise profile of the synthetic data;
//   3. template inventory: curated built-ins vs. auto-generated templates
//      (the paper's future-work extension) vs. both.

#include <iostream>

#include "bench/harness.h"
#include "program/auto_generator.h"

namespace uctr::bench {
namespace {

void FeatureAblation(const datasets::Benchmark& bench, const Dataset& uctr,
                     Rng* rng) {
  std::cout << "-- verifier feature families (dev accuracy on "
            << bench.name << ") --\n";
  TablePrinter table({"Features", "Accuracy"});
  struct Setting {
    const char* name;
    bool lexical, alignment, interpreter;
  };
  const Setting settings[] = {
      {"lexical only", true, false, false},
      {"lexical + alignment", true, true, false},
      {"lexical + interpreter", true, false, true},
      {"all (default)", true, true, true},
  };
  for (const Setting& s : settings) {
    model::VerifierConfig config;
    config.features.lexical = s.lexical;
    config.features.alignment = s.alignment;
    config.features.interpreter = s.interpreter;
    model::VerifierModel verifier(config, BuiltinLogicTemplates());
    verifier.Train(uctr, rng);
    table.AddRow({s.name, Pct(verifier.Accuracy(bench.gold_dev))});
  }
  table.Print();
  std::cout << "(expected: the program-interpretation features carry most "
            << "of the reasoning signal.)\n\n";
}

void NoiseAblation(const datasets::Benchmark& bench, Rng* rng) {
  std::cout << "-- synthetic NL noise profile (dev accuracy on "
            << bench.name << ") --\n";
  TablePrinter table({"Synthetic NL profile", "Accuracy"});
  struct Setting {
    const char* name;
    bool stochastic;
    double synonym, drop;
  };
  const Setting settings[] = {
      {"canonical (no variety)", false, 0.0, 0.0},
      {"synonyms 0.3 (default)", true, 0.3, 0.0},
      {"synonyms 0.6", true, 0.6, 0.0},
      {"synonyms 0.6 + drops 0.1", true, 0.6, 0.1},
  };
  for (const Setting& s : settings) {
    static const TemplateLibrary& library = TemplateLibrary::Builtin();
    GenerationConfig config;
    config.task = bench.task;
    config.program_types = bench.program_types;
    config.samples_per_table = 8;
    config.use_table_to_text = bench.hybrid;
    config.use_text_to_table = bench.hybrid;
    config.hybrid_fraction = bench.hybrid ? 0.45 : 0.0;
    config.nl.stochastic = s.stochastic;
    config.nl.paraphrase.synonym_prob = s.synonym;
    config.nl.paraphrase.drop_prob = s.drop;
    Generator generator(config, &library, rng);
    Dataset synthetic = generator.GenerateDataset(bench.unlabeled);

    model::VerifierModel verifier =
        TrainVerifier(synthetic, bench.num_classes, rng);
    table.AddRow({s.name, Pct(verifier.Accuracy(bench.gold_dev))});
  }
  table.Print();
  std::cout << "(expected: some surface variety beats fully canonical "
            << "text; heavy information-loss noise starts to hurt.)\n\n";
}

void TemplateInventoryAblation(const datasets::Benchmark& bench, Rng* rng) {
  std::cout << "-- template inventory (dev accuracy on " << bench.name
            << ") --\n";

  // Auto-generate claim templates from the unlabeled corpus (paper §VII).
  std::vector<Table> tables;
  for (const auto& entry : bench.unlabeled) tables.push_back(entry.table);
  AutoGenConfig auto_config;
  auto_config.num_candidates = 120;
  AutoTemplateGenerator auto_gen(auto_config, rng);
  std::vector<ProgramTemplate> auto_templates = auto_gen.Generate(tables);
  std::cout << "auto-generated " << auto_templates.size()
            << " validated claim templates\n";

  TablePrinter table({"Inventory", "#templates", "Accuracy"});
  auto run = [&](const char* name, std::vector<ProgramTemplate> templates) {
    TemplateLibrary library;
    // Each has a form: a built-in, or an auto-generated template that
    // sampled on the corpus.
    for (const ProgramTemplate& t : templates) (void)library.Add(t);
    GenerationConfig config;
    config.task = bench.task;
    config.program_types = bench.program_types;
    config.samples_per_table = 8;
    config.nl = datasets::SyntheticNlProfile();
    Generator generator(config, &library, rng);
    Dataset synthetic = generator.GenerateDataset(bench.unlabeled);
    model::VerifierModel verifier =
        TrainVerifier(synthetic, bench.num_classes, rng);
    table.AddRow({name, std::to_string(library.size()),
                  Pct(verifier.Accuracy(bench.gold_dev))});
  };

  run("built-in (curated)", BuiltinLogicTemplates());
  run("auto-generated", auto_templates);
  std::vector<ProgramTemplate> both = BuiltinLogicTemplates();
  for (const auto& t : auto_templates) both.push_back(t);
  run("built-in + auto", DeduplicateTemplates(std::move(both)));
  table.Print();
  std::cout << "(expected: auto templates alone approach the curated set; "
            << "combining them matches or improves it — supporting the "
            << "paper's future-work direction.)\n";
}

void Run() {
  Rng rng(31337);
  datasets::BenchmarkScale scale;
  scale.unlabeled_tables = 30;
  scale.gold_train_tables = 8;
  scale.eval_tables = 24;
  scale.eval_samples_per_table = 8;
  datasets::Benchmark bench = datasets::MakeFeverousSim(scale, &rng);

  std::cout << "== Design-choice ablations (this implementation) ==\n\n";
  Dataset uctr = GenerateUctr(bench, 8, &rng);
  FeatureAblation(bench, uctr, &rng);
  NoiseAblation(bench, &rng);
  TemplateInventoryAblation(bench, &rng);
}

}  // namespace
}  // namespace uctr::bench

int main() {
  uctr::bench::Run();
  return 0;
}
