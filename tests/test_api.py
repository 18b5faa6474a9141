import lftk

# The public API, sorted. Adding or removing a name is a deliberate edit here.
PUBLIC_API = [
    "AdmmState",
    "AugmentationConstants",
    "DataFormatError",
    "DivergenceError",
    "Entry",
    "EvalReport",
    "FactorModel",
    "RecordFormat",
    "SparseTensor",
    "SplitSpec",
    "SynthSpec",
    "TrainConfig",
    "build_tensor",
    "cauchy_weight",
    "compute_augmentation_constants",
    "lagrangian_value",
    "load_model",
    "load_records",
    "mae",
    "objective",
    "project_nonnegative",
    "save_model",
    "split",
    "synthesize",
    "train",
    "train_epoch",
    "update_auxiliary_bias",
    "update_auxiliary_factor_row",
    "update_multipliers",
    "write_predictions",
    "write_records",
]


def test_public_api_is_pinned():
    assert PUBLIC_API == sorted(PUBLIC_API) and len(PUBLIC_API) == 31
    assert lftk.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(lftk, name) is not None
