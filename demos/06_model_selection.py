"""Surrogate-scored hyperparameter selection.

True effects are never observed, so candidates cannot be ranked by a held-
out label. Instead an honest-forest T-learner is fit on the validation
split and candidates are ranked by normalized RMSE against it. A sane
configuration and one with an absurd learning rate compete here.
"""

from dagformer.data import LinearScm, linear_scm_dag, simulate_linear_scm
from dagformer.forest import ForestConfig
from dagformer.methods import resolve
from dagformer.selection import candidates, fit_plugin, grid_search, ranking_csv

dataset = simulate_linear_scm(600, LinearScm(treatment_effect=2.0), seed=1)
train, validation = dataset.split(0.7, seed=1)
dag = linear_scm_dag(1)

plugin = fit_plugin(validation, dag, ForestConfig(n_trees=50, seed=1))
print(f"plug-in (honest forest) ATE on the validation split: "
      f"{plugin.ate(validation):.3f} (truth 2.0)")

# the base run config, and the grid of run-config keys that each candidate sets in it
config = {"method": "gformula", "seed": 1, "plugin": {"n_trees": 50},
          "model": {"embedding_dim": 8, "num_heads": 2, "num_encoder_layers": 1,
                    "feedforward_dim": 16, "mlp_width": 8, "mlp_depth": 1,
                    "dropout_rate": 0.0, "alpha": 0.1},
          "epochs": 20, "batch_size": 32}
grid = {"optimizer.learning_rate": [3e-3, 10.0]}
rows, best = grid_search(resolve(config), candidates(config, grid), train, validation, dag)

print("\nranking (score is NRMSE against the plug-in effects):")
print(ranking_csv(rows))
for entry in rows:
    lr = entry["config"]["optimizer.learning_rate"]
    state = "diverged" if entry["diverged"] else f"score {entry['score']:.3f}"
    print(f"  lr={lr:<6} -> rank {entry['rank']}, {state}")
print(f"\nselected model has {best.param_count} parameters "
      f"and learning rate {rows[0]['config']['optimizer.learning_rate']}")
