"""deepcate: neural-network and linear estimators of heterogeneous
treatment effects, plus a targeted-selection simulation benchmark."""

from .dgp import (
    DgpConfig,
    DgpSample,
    gen_covariates,
    norm_cdf,
    sample_dgp,
    true_alpha,
    true_beta,
    true_pi,
)
from .harness import (
    ExperimentConfig,
    ModeratorTree,
    TrainSettings,
    fit_moderator_tree,
    run_experiment,
    run_trial,
)
from .metrics import (
    EvalTruth,
    ResultsTable,
    TrialMetrics,
    aggregate_results,
    eval_truth,
    ipw_ate,
    pearson_corr,
    trial_metrics,
)
from .models import (
    BcfModel,
    CateModel,
    NaiveModel,
    OlsModel,
    PropensityModel,
    SharedModel,
    fit_bcf,
    fit_naive,
    fit_ols,
    fit_propensity,
    fit_shared,
    load_model,
    predict_cate,
    predict_prognostic,
    predict_propensity,
    save_model,
)
from .nn import (
    AdamState,
    LayerSpec,
    MlpNetwork,
    TrainConfig,
    TrainingDivergedError,
    adam_update,
    backward,
    compute_loss,
    count_params,
    forward,
    init_network,
    train,
)

__version__ = "0.1.0"
