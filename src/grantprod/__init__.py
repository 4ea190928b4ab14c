"""Text features vs research-grant productivity: extraction, classification, relevance."""

from .corpus import (
    Area,
    BalancedDataset,
    GrantRecord,
    Label,
    balanced_resample,
    derive_label,
    label_records,
    load_corpus,
    productivity_histogram,
)
from .complexity import (
    COMPLEXITY_SCHEMA,
    ComplexityVector,
    brunet_index,
    extract_complexity_vector,
)
from .ml import (
    ComplexityFeatures,
    EvalReport,
    FeatureMatrix,
    TfidfFeatures,
    cross_validate,
    f1_score,
    relevance_over_resamples,
    significance_pvalue,
    train_decision_tree,
    train_linear_svm,
    train_mlp,
    train_naive_bayes,
    train_random_forest,
)
from .relevance import (
    FeatureRelevanceReport,
    average_rank,
    critical_difference,
    feature_importance,
    impurity_decrease,
)
from .textproc import LexiconSet, builtin_lexicons, load_lexicons
from .topical import (
    FieldSelector,
    VectorMode,
    Vocabulary,
    fit_vocabulary,
    tfidf_weight,
    vectorize,
)

__version__ = "0.1.0"
