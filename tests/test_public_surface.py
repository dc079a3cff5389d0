"""The package exports exactly its modules' public names."""
import types

import volcur
from volcur import bounds, errors, esp, psd, sampling, spectra


def test_package_exports_each_module_all_and_the_error_classes():
    listed = {name: getattr(module, name)
              for module in (bounds, errors, esp, psd, sampling, spectra) for name in module.__all__}
    for name, obj in listed.items():
        assert getattr(volcur, name, None) is obj, name
    error_classes = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, errors.VolcurError)}
    assert set(errors.__all__) == error_classes
    public = {name for name, obj in vars(volcur).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == set(listed)
    assert volcur.__version__
