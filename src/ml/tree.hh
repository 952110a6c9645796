/**
 * @file
 * CART decision trees: a gini-impurity classification tree (the paper's
 * best fingerprinting model, Fig. 10) and a variance-reduction
 * regression tree used as the weak learner inside gradient boosting.
 */

#ifndef LEAKY_ML_TREE_HH
#define LEAKY_ML_TREE_HH

#include <cstdint>
#include <vector>

#include "ml/classifier.hh"

namespace leaky::ml {

/** Decision-tree hyperparameters. */
struct TreeConfig {
    std::uint32_t max_depth = 24;
    std::uint32_t min_samples_split = 4;
    /** Features examined per split; 0 = all (set for random forests). */
    std::uint32_t max_features = 0;
    std::uint64_t seed = 1;
};

/** Gini CART classifier. */
class DecisionTree final : public Classifier
{
  public:
    explicit DecisionTree(const TreeConfig &cfg = {});

    void fit(const Dataset &data) override;
    int predict(const std::vector<double> &row) const override;
    std::string name() const override { return "DecisionTree"; }

  private:
    struct Node {
        int feature = -1; ///< -1 = leaf.
        double threshold = 0.0;
        std::int32_t left = -1;
        std::int32_t right = -1;
        int label = 0;
    };

    std::int32_t build(const Dataset &data,
                       std::vector<std::size_t> &indices,
                       std::size_t begin, std::size_t end,
                       std::uint32_t depth, sim::Rng &rng);

    TreeConfig cfg_;
    std::vector<Node> nodes_;
    int n_classes_ = 0;
};

/** Regression tree (variance reduction) for gradient boosting. */
class RegressionTree
{
  public:
    explicit RegressionTree(std::uint32_t max_depth = 3,
                            std::uint32_t min_samples_split = 8);

    /** Fit x -> targets over the subset @p indices. */
    void fit(const std::vector<std::vector<double>> &x,
             const std::vector<double> &targets,
             const std::vector<std::size_t> &indices);

    double predict(const std::vector<double> &row) const;

  private:
    struct Node {
        int feature = -1;
        double threshold = 0.0;
        std::int32_t left = -1;
        std::int32_t right = -1;
        double value = 0.0;
    };

    std::int32_t build(const std::vector<std::vector<double>> &x,
                       const std::vector<double> &targets,
                       std::vector<std::size_t> &indices,
                       std::size_t begin, std::size_t end,
                       std::uint32_t depth);

    std::uint32_t max_depth_;
    std::uint32_t min_samples_split_;
    std::vector<Node> nodes_;
};

} // namespace leaky::ml

#endif // LEAKY_ML_TREE_HH
